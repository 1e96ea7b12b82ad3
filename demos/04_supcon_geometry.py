#!/usr/bin/env python3
"""Why supervised-contrastive representations do not survive the shift.

The supervised-contrastive closed form factors a class-mean covariance, so core
and spurious features fuse into a single direction per class pair. On the true
distribution the four (label sign, spurious sign) groups line up on one line in
representation space; a linear probe can then separate at most three of the
four, capping accuracy at 75%, and the probe trained on in-distribution
representations scores exactly 50%.
"""
import numpy as np

from mmclab import (CaptionMask, DataModel2Params, ModalityConfig,
                    RngStream, enumerate_latents_dm2, make_dictionary,
                    make_paired_dataset, probe_fit, supcon_class_mean_cov,
                    supcon_fit_closed_form, supcon_group_geometry)
from mmclab.evaluation import evaluate_probe

rng = RngStream(root_seed=0)
params = DataModel2Params(m=2, alpha=1.5, beta=1 / 3)
cfg = ModalityConfig(make_dictionary(4, 4))

train = make_paired_dataset(enumerate_latents_dm2(params, "train"), cfg, cfg,
                            CaptionMask.none(), rng.child(1))
encoder = supcon_fit_closed_form(supcon_class_mean_cov(train), p_dim=4, rho=1.0)
print("encoder eigenvalues:", np.round(encoder.eigenvalues, 6),
      " (2(1+a^2)/(2m-1) with multiplicity m, then zeros)")

probe = probe_fit(encoder.transform(train.x_image), train.latents.y,
                  epochs=60000, rng=rng.child(2))
id_rep = evaluate_probe(encoder, probe, params, "train", cfg)  # every row of each split
ood_rep = evaluate_probe(encoder, probe, params, "true", cfg)
print(f"probe accuracy: train {id_rep.overall_accuracy}, "
      f"true {ood_rep.overall_accuracy} (exactly one half)")

true_data = make_paired_dataset(enumerate_latents_dm2(params, "true"), cfg, cfg,
                                CaptionMask.none(), rng.child(3))
geometry = supcon_group_geometry(encoder, true_data)
print(f"\ngroup means collinearity residual: {geometry.residual:.2e}")
print("line coordinates per (label sign, spurious sign):")
for key in geometry.ordering:
    print(f"  {key}: {geometry.coefficients[key]:+.4f}")
print("ordering (-1,-), (+1,-), (-1,+), (+1,+): the middle two are the "
      "mismatched groups no single threshold can fix")

# the ordering flips once the spurious scale drops below the core scale
weak = DataModel2Params(m=2, alpha=0.8, beta=1 / 3)
train_w = make_paired_dataset(enumerate_latents_dm2(weak, "train"), cfg, cfg,
                              CaptionMask.none(), rng.child(4))
enc_w = supcon_fit_closed_form(supcon_class_mean_cov(train_w), 4, 1.0)
true_w = make_paired_dataset(enumerate_latents_dm2(weak, "true"), cfg, cfg,
                             CaptionMask.none(), rng.child(5))
print(f"\nat alpha=0.8 (< 1) the ordering becomes: "
      f"{supcon_group_geometry(enc_w, true_w).ordering}")

# the strongest linear attack, exactly: the best threshold cut along each class
# pair's line, which no probe trained on the true-split representations beats
print(f"best threshold rule on true-split representations: "
      f"{geometry.best_threshold_accuracy:.4f} (the ceiling is 0.75)")

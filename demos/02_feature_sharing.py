#!/usr/bin/env python3
"""Multi-class model where weak copies of each core feature appear in every class.

Because unrelated classes carry the core feature of class k at scale beta
without the matching spurious coordinate, the training cross-covariance keeps
core and spurious contributions apart, and zero-shot classification survives
the distribution shift perfectly once beta^2 m is large enough. The supervised
max-margin solution has no access to that structure and collapses to roughly
50% when the spurious scale alpha is large.
"""
from mmclab import (CaptionMask, DataModel2Params, EvalSampler, ModalityConfig,
                    RngStream, empirical_cross_cov, build_prompts,
                    enumerate_latents_dm2, make_dictionary, make_paired_dataset,
                    mmcl_fit_closed_form, population_cross_cov_dm2, sl_fit_gd,
                    sl_shift_ceiling_dm2, perfect_zero_shot_condition_dm2)
from mmclab.evaluation import evaluate_sl, evaluate_zero_shot

rng = RngStream(root_seed=0)

# ---- zero-shot is perfect whenever the feature-sharing condition holds
print("== condition beta^2 m > alpha^2 (1+beta)/(1-beta) - 1 + beta^2 ==")
for m, alpha, beta in [(3, 0.7, 1 / 3), (3, 2.0, 1 / 3), (8, 2.0, 0.0), (30, 1.1, 1 / 3)]:
    params = DataModel2Params(m, alpha, beta)
    cfg = ModalityConfig(make_dictionary(params.l, params.l))
    holds = perfect_zero_shot_condition_dm2(m, alpha, beta)
    model = mmcl_fit_closed_form(population_cross_cov_dm2(params), params.l, 1.0,
                                 cfg.dictionary, cfg.dictionary)
    prompts = build_prompts(params, cfg.dictionary)
    if params.m <= 5:
        report = evaluate_zero_shot(model, prompts,
                                    EvalSampler(params, "true", cfg, exhaustive=True))
    else:
        report = evaluate_zero_shot(model, prompts, EvalSampler(params, "true", cfg),
                                    50000, rng.child(m))
    print(f"m={m:>2} alpha={alpha:<4} beta={beta:.3f}  condition={str(holds):<5} "
          f"zero-shot accuracy={report.overall_accuracy:.4f}")

# ---- supervised learning with a strong spurious feature
params = DataModel2Params(3, 10.0, 1 / 3)
cfg = ModalityConfig(make_dictionary(6, 6))
train = enumerate_latents_dm2(params, "train")
sl = sl_fit_gd(train.z, train.y, epochs=40000, rng=rng.child(99))
id_report = evaluate_sl(sl, EvalSampler(params, "train", cfg, exhaustive=True))
ood_report = evaluate_sl(sl, EvalSampler(params, "true", cfg, exhaustive=True))
bound = sl_shift_ceiling_dm2(params.alpha, params.beta)
print("\n== supervised learning, m=3, alpha=10, beta=1/3 (exhaustive train set) ==")
print(f"train accuracy : {id_report.overall_accuracy:.4f}")
print(f"true accuracy  : {ood_report.overall_accuracy:.4f}   "
      f"bound <= {bound.values['overall']:.4f}")
print(f"minority       : {ood_report.minority_accuracy():.4f}  "
      "(examples whose spurious coordinate flips)")

# same data, contrastive path: empirical covariance of the exhaustive pairs
data = make_paired_dataset(enumerate_latents_dm2(DataModel2Params(3, 0.7, 1 / 3), "train"),
                           cfg, cfg, CaptionMask.none(), rng.child(100))
mmcl = mmcl_fit_closed_form(empirical_cross_cov(data), 6, 1.0)
prompts = build_prompts(DataModel2Params(3, 0.7, 1 / 3), cfg.dictionary)
rep = evaluate_zero_shot(mmcl, prompts,
                         EvalSampler(DataModel2Params(3, 0.7, 1 / 3), "true", cfg, True))
print(f"\nempirical-covariance path at (3, 0.7, 1/3): accuracy {rep.overall_accuracy}")

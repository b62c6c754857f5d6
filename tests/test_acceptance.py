"""Acceptance suite: seven gated criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the [A*] lines.
Statistical criteria (A3-A5) train small models across seeds; the whole
module stays inside the stated runtime budgets on a desktop CPU.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from ulre import cli
from ulre import evidential as ev
from ulre import metrics
from ulre import model as mdl
from ulre.data import (
    class_means,
    read_tensor_file,
    sample_unit_directions,
    write_tensor_file,
)
from ulre.numkernel import Rng

from test_metrics import flat_ap_and_fpr95

SEEDS = [0, 1000, 2000, 3000, 4000]


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# --------------------------------------------------------------------------
# A1: analytic gradients of the annealed total loss vs finite differences
# --------------------------------------------------------------------------


def test_a1_gradient_correctness():
    t0 = time.monotonic()
    model = mdl.init_model([4, 8, 2], seed=101, head="evidential")
    rng = np.random.default_rng(202)
    x = rng.normal(size=(16, 4))
    y = ev.one_hot(rng.integers(0, 2, 16))
    step = 1e-3
    worst = 0.0
    for epoch in (0, 20):
        _, gw, gb = mdl._Step(model, len(x), np.float64)(x, y, epoch)
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for p, g in zip(params, grads):
                flat_p, flat_g = p.ravel(), g.ravel()
                for k in range(flat_p.size):
                    orig = flat_p[k]
                    flat_p[k] = orig + step
                    lp = mdl._Step(model, len(x), np.float64)(x, y, epoch)[0]
                    flat_p[k] = orig - step
                    lm = mdl._Step(model, len(x), np.float64)(x, y, epoch)[0]
                    flat_p[k] = orig
                    fd = (lp - lm) / (2 * step)
                    rel = abs(flat_g[k] - fd) / max(1e-12, abs(flat_g[k]) + abs(fd))
                    worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    report("A1", ok, f"max rel grad err {worst:.3e} (gate 1e-4), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# A2: KL closed form vs adaptive quadrature
# --------------------------------------------------------------------------


def kl_to_uniform_quad(a0: float, a1: float) -> float:
    def integrand(p):
        logpdf = (
            (a1 - 1.0) * math.log(p)
            + (a0 - 1.0) * math.log1p(-p)
            - special.betaln(a1, a0)
        )
        return math.exp(logpdf) * logpdf

    val, err = integrate.quad(integrand, 0.0, 1.0, limit=200)
    assert err < 1e-7
    return val


def test_a2_kl_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    # one-hot y: the correct class is forced to 1, so alpha_tilde = (1, b)
    y = np.array([1.0, 0.0])
    for _ in range(20):
        b = 1.0 + rng.uniform(0.0, 9.0)
        got = float(ev.edl_kl_reg(np.array([7.0, b]), y))
        want = kl_to_uniform_quad(1.0, b)
        worst = max(worst, abs(got - want))
    exact_11 = abs(float(ev.edl_kl_reg(np.array([7.0, 1.0]), y)))
    exact_12 = abs(
        float(ev.edl_kl_reg(np.array([7.0, 2.0]), y)) - (math.log(2.0) - 0.5)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and exact_11 <= 1e-9 and exact_12 <= 1e-9 and elapsed < 5.0
    report(
        "A2",
        ok,
        f"max |closed-form - quadrature| {worst:.2e} (gate 1e-6), "
        f"hand cases {exact_11:.1e}/{exact_12:.1e} (gate 1e-9), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# A3/A4 toy study: five seeded runs of the 1-D Gaussian experiment
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    t0 = time.monotonic()
    runs = []
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"toy_{seed}")
        resolved = cli.resolve_config("toy-gaussian", {"seed": str(seed)})
        cli.run_command("toy-gaussian", resolved, out)
        runs.append(json.loads((out / "toy_summary.json").read_text()))
    return runs, time.monotonic() - t0


def test_a3a_center_probability(toy_runs):
    runs, elapsed = toy_runs
    hits = [abs(r["p_edl_at_0"] - 0.5) <= 0.05 for r in runs]
    ok = sum(hits) >= 4 and elapsed < 300.0
    detail = ", ".join(f"{r['p_edl_at_0']:.3f}" for r in runs)
    report("A3a", ok, f"p(out|x=0) per seed: {detail} (gate 0.5+-0.05, >=4/5), "
                      f"toy suite {elapsed:.0f}s (budget 300s)")


def test_a3b_tail_vacuity_ratio(paired_study):
    # Vacuity must be at least twice as high away from the training data as
    # on it. The 1-D toy's vacuity(+-6)/vacuity(0) (toy_summary.json) is
    # reported but not gated, because neither point can hold the head to it:
    # - x = 0 is the class overlap. The log loss has zero gradient along the
    #   shared logit mode there and the KL term removes the wrong-class
    #   evidence, so vacuity(0) stays near its init 0.5 and the gate would
    #   need vacuity(+-6) >= 0.98.
    # - x = +-6 lies beyond every training sample, where no loss term is
    #   evaluated. Every concentration is >= 1, so vacuity <= 2/(1 + r) for
    #   the estimated ratio r; a head whose ratio is right there (e^4.8) has
    #   vacuity <= 0.016.
    # The paired study measures the claim itself: 2000 probes at cosine
    # distance >= 0.5 from every cluster mean against the training rows.
    runs, _ = paired_study
    ratios = [r["vacuity_far"] / r["vacuity_train"] for r in runs]
    hits = [ratio >= 2.0 for ratio in ratios]
    ok = sum(hits) >= 4
    detail = ", ".join(
        f"{r['vacuity_far']:.4f}/{r['vacuity_train']:.6f} = {ratio:.1f}"
        for r, ratio in zip(runs, ratios)
    )
    report(
        "A3b",
        ok,
        f"far-probe/on-data vacuity per seed: {detail} (gate >=2 in >=4/5)",
    )


def test_a3c_log_lr_slope(toy_runs):
    runs, _ = toy_runs
    slopes = [r["lnlr_slope_center"] for r in runs]
    hits = [abs(s - 0.8) <= 0.15 for s in slopes]
    ok = sum(hits) >= 4
    detail = ", ".join(f"{s:.3f}" for s in slopes)
    report("A3c", ok, f"ln-ratio slope on [-2,2] per seed: {detail} "
                      f"(gate 0.8+-0.15, >=4/5)")


# --------------------------------------------------------------------------
# A4: overconfident-extrapolation contrast (toy tails + high-D benchmark);
# the high-D study's evidential models also serve A3b
# --------------------------------------------------------------------------


def _paired_extrapolation_benchmark(seed: int) -> dict:
    """3 tight ID clusters + 1 broad proxy outlier cluster in 16-D; probes
    at cosine distance >= 0.5 from every cluster mean. Both heads share the
    init stream so the far-field comparison is paired.

    Returns the far-bin mean p(out) of each head and the evidential head's
    mean vacuity over the probes and over the training rows."""
    d = 16
    n_per, n_ood = 3000, 9000
    rng = Rng(seed)
    dirs = sample_unit_directions(d, 4, 0.5, rng)
    id_dirs, proxy = dirs[:3], dirs[3]
    rows, labels = [], []
    for direction in id_dirs:
        rows.append(direction + 0.1 * rng.standard_normal(n_per * d).reshape(n_per, d))
        labels.append(np.zeros(n_per, dtype=int))
    rows.append(proxy + 0.8 * rng.standard_normal(n_ood * d).reshape(n_ood, d))
    labels.append(np.ones(n_ood, dtype=int))
    x = np.concatenate(rows)
    y = np.concatenate(labels)

    cfg = mdl.TrainConfig(
        epochs=40, learning_rate=1e-3, batch_size=1024, seed=seed + 1
    )
    m_edl, _ = mdl.train(
        mdl.init_model([d, 256, 64, 2], seed + 3, "evidential"), x, y, cfg
    )
    m_bce, _ = mdl.train(
        mdl.init_model([d, 256, 64, 1], seed + 3, "sigmoid"), x, y, cfg
    )

    all_means = np.concatenate([id_dirs, proxy[None, :]])
    probes = []
    while len(probes) < 2000:
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if np.all(1.0 - all_means @ v >= 0.5):
            probes.append(v)
    probes = np.array(probes)

    def edl_alpha(rows):
        return ev.dirichlet_from_evidence(ev.evidence_from_logits(mdl.forward(m_edl, rows)))

    means = class_means(all_means, np.arange(4))
    alpha = edl_alpha(probes)
    p_edl = ev.expected_prob(alpha)[:, 1]
    p_bce = ev.sigmoid(mdl.forward(m_bce, probes)[:, 0])

    def far_mean(probs):
        analysis = metrics.extrapolation_analysis(probes, means, probs)
        sel = (analysis.bin_edges[:-1] >= 0.5) & (analysis.counts > 0)
        weights = analysis.counts[sel]
        return float((analysis.mean_prob[sel] * weights).sum() / weights.sum())

    return {
        "p_edl_far": far_mean(p_edl),
        "p_bce_far": far_mean(p_bce),
        "vacuity_far": float(ev.vacuity(alpha).mean()),
        "vacuity_train": float(ev.vacuity(edl_alpha(x)).mean()),
    }


@pytest.fixture(scope="module")
def paired_study():
    t0 = time.monotonic()
    runs = [_paired_extrapolation_benchmark(seed) for seed in SEEDS]
    return runs, time.monotonic() - t0


def test_a4_overconfident_extrapolation(toy_runs, paired_study):
    runs, _ = toy_runs
    pairs, paired_elapsed = paired_study
    t0 = time.monotonic()
    toy_hits = [
        r["p_bce_at_hi"] >= 0.95 and r["p_edl_at_hi"] < r["p_bce_at_hi"] for r in runs
    ]
    far_hits = [p["p_edl_far"] < p["p_bce_far"] for p in pairs]
    elapsed = time.monotonic() - t0 + paired_elapsed
    ok = sum(toy_hits) >= 4 and sum(far_hits) >= 4 and elapsed < 600.0
    toy_detail = ", ".join(
        f"(bce {r['p_bce_at_hi']:.3f}, edl {r['p_edl_at_hi']:.3f})" for r in runs
    )
    far_detail = ", ".join(
        f"(edl {p['p_edl_far']:.3f} < bce {p['p_bce_far']:.3f})" for p in pairs
    )
    report(
        "A4",
        ok,
        f"toy tails {sum(toy_hits)}/5: {toy_detail}; "
        f"far-bin means {sum(far_hits)}/5: {far_detail}; {elapsed:.0f}s "
        f"(budget 600s)",
    )


# --------------------------------------------------------------------------
# A5: end-to-end synthetic pipeline through the CLI
# --------------------------------------------------------------------------


def test_a5_synthetic_pipeline(tmp_path):
    t0 = time.monotonic()
    seed = 11
    common = {
        "height": "64",
        "width": "64",
        "dim": "16",
        "n_classes": "4",
        "seed": str(seed),
    }
    train_gen = cli.resolve_config(
        "gen-synthetic",
        dict(
            common,
            scene_seed="100",
            n_scenes="20",
            ood_per_scene="true",
            ood_sigma="0.6",
        ),
    )
    cli.run_command("gen-synthetic", train_gen, tmp_path / "train_scenes")
    eval_gen = cli.resolve_config(
        "gen-synthetic",
        dict(
            common,
            scene_seed="900",
            n_scenes="5",
            ood_index="1",
            ood_sigma="0.1",
            ood_min_size="12",
            ood_max_size="20",
            scale_lo="0.8",
            scale_hi="1.5",
        ),
    )
    cli.run_command("gen-synthetic", eval_gen, tmp_path / "eval_scenes")

    scene_list = ",".join(
        str(tmp_path / "train_scenes" / f"scene_{i:03d}.ulre") for i in range(20)
    )
    # the 1-D-toy lr default is far too small for 800 synthetic steps; the
    # raised value is recorded in the training manifest
    train_cfg = cli.resolve_config(
        "train",
        {
            "features": scene_list,
            "labels": scene_list,
            "epochs": "10",
            "learning_rate": "1e-3",
            "seed": str(seed),
        },
    )
    cli.run_command("train", train_cfg, tmp_path / "model")
    manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
    assert manifest["config"]["learning_rate"] == 1e-3

    score_files, label_files = [], []
    for i in range(5):
        score_cfg = cli.resolve_config(
            "score",
            {
                "checkpoint": str(tmp_path / "model" / "model.ulre"),
                "features": str(tmp_path / "eval_scenes" / f"scene_{i:03d}.ulre"),
            },
        )
        cli.run_command("score", score_cfg, tmp_path / f"scores_{i}")
        score_files.append(str(tmp_path / f"scores_{i}" / "scores.ulre"))
        label_files.append(str(tmp_path / "eval_scenes" / f"scene_{i:03d}.ulre"))

    eval_cfg = cli.resolve_config(
        "eval", {"scores": ",".join(score_files), "labels": ",".join(label_files)}
    )
    cli.run_command("eval", eval_cfg, tmp_path / "metrics")
    payload = json.loads((tmp_path / "metrics" / "metrics.json").read_text())
    elapsed = time.monotonic() - t0
    ok = payload["ap"] >= 0.95 and payload["fpr95"] <= 0.10 and elapsed < 600.0
    report(
        "A5",
        ok,
        f"AP {payload['ap']:.4f} (gate >=0.95), FPR@95 {payload['fpr95']:.4f} "
        f"(gate <=0.10), {elapsed:.0f}s (budget 600s)",
    )


# --------------------------------------------------------------------------
# A6: metric implementations vs brute-force threshold sweeps
# --------------------------------------------------------------------------


def brute_force_counts(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    for tau in sorted(set(scores.tolist()), reverse=True):
        tp = int(((scores >= tau) & (labels == 1)).sum())
        fp = int(((scores >= tau) & (labels == 0)).sum())
        yield tp, fp


def brute_force_ap(scores, labels):
    n_pos = int((np.asarray(labels) == 1).sum())
    ap = prev = 0.0
    for tp, fp in brute_force_counts(scores, labels):
        recall = tp / n_pos
        ap += (recall - prev) * (tp / (tp + fp))
        prev = recall
    return ap


def brute_force_fpr95(scores, labels):
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    return min(
        fp / n_neg for tp, fp in brute_force_counts(scores, labels) if tp / n_pos >= 0.95
    )


def test_a6_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    worst_ap = worst_fpr = 0.0
    for case in range(10):
        n = 1000
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if case % 2 == 0:  # tie-heavy: few distinct score values
            scores = rng.integers(0, 10, n) / 3.0
        else:
            scores = rng.uniform(0.0, 5.0, n)
        ap, fpr95 = flat_ap_and_fpr95(scores, labels)
        worst_ap = max(worst_ap, abs(ap - brute_force_ap(scores, labels)))
        worst_fpr = max(worst_fpr, abs(fpr95 - brute_force_fpr95(scores, labels)))
    elapsed = time.monotonic() - t0
    ok = worst_ap <= 1e-9 and worst_fpr <= 1e-9 and elapsed < 5.0
    report(
        "A6",
        ok,
        f"max |AP - oracle| {worst_ap:.1e}, max |FPR95 - oracle| {worst_fpr:.1e} "
        f"(gates 1e-9), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# A7: algebraic identities and container round trips
# --------------------------------------------------------------------------


def test_a7_identities(tmp_path):
    rng = np.random.default_rng(505)
    alpha = 1.0 + rng.uniform(0.0, 100.0, size=(1000, 2))
    p = ev.expected_prob(alpha)
    ratio_err = float(np.abs(ev.lr_score(alpha) - p[:, 1] / p[:, 0]).max())

    schedule_ok = all(
        ev.lambda_schedule(t) == min(1.0, t / 10.0) for t in range(16)
    )

    roundtrip_ok = True
    path = tmp_path / "fuzz.ulre"
    for _ in range(100):
        records = {}
        for i in range(rng.integers(0, 5)):
            rank = int(rng.integers(0, 4))
            shape = tuple(int(rng.integers(0, 5)) for _ in range(rank))
            if rng.integers(0, 2):
                records[f"r{i}"] = rng.normal(size=shape)
            else:
                records[f"r{i}"] = rng.integers(0, 256, size=shape).astype(np.uint8)
        write_tensor_file(path, records)
        back = read_tensor_file(path)
        if list(back) != list(records):
            roundtrip_ok = False
            break
        for name, arr in records.items():
            want = np.ascontiguousarray(
                arr, dtype="<f8" if arr.dtype.kind == "f" else "u1"
            )
            if back[name].shape != want.shape or back[name].tobytes() != want.tobytes():
                roundtrip_ok = False
    ok = ratio_err <= 1e-12 and schedule_ok and roundtrip_ok
    report(
        "A7",
        ok,
        f"max |ratio identity err| {ratio_err:.1e} (gate 1e-12), "
        f"annealing schedule {'ok' if schedule_ok else 'BAD'}, "
        f"container round trips {'bitwise' if roundtrip_ok else 'BAD'}",
    )

"""Output checks derived from the paper's claims, not from stored outputs.

Every theoretical value is recomputed here from first principles (the
randomized-response channel, the two-stage noisy-sampling decode, the mixture
form of the noisy-sampling privacy parameter) and compared with what the
library reports.  Sampling checks use Bonferroni-corrected bounds with a
family-wise false-alarm rate of `FAMILY_ALPHA` per operation, so a correct
library fails one with negligible probability over a whole benchmark campaign.

Each check returns a list of failure messages; an empty list means it passed.
"""

import math
from statistics import NormalDist

import numpy as np

FAMILY_ALPHA = 1e-6
EXACT_TOL = 1e-12
THEORY_RTOL = 1e-9

_NORMAL = NormalDist()


def z_two_sided(tests: int) -> float:
    return _NORMAL.inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * tests))


def chi2_quantile(p: float, dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile."""
    z = _NORMAL.inv_cdf(p)
    c = 2.0 / (9.0 * dof)
    return dof * max(0.0, 1.0 - c + z * math.sqrt(c)) ** 3


def rr_probs(eps: float, m: int):
    """(retain, other) probabilities of the eps-randomized response over m values."""
    big = math.exp(eps)
    return big / (big + m - 1), 1.0 / (big + m - 1)


def error_floor(eps: float, m: int) -> float:
    """Bayes error of guessing a uniform value from one eps-randomized response."""
    return (m - 1) / (math.exp(eps) + m - 1)


def frequency_variance(counts, eps: float) -> np.ndarray:
    """Variance of each debiased frequency for a fixed population ``counts``."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p, q = rr_probs(eps, len(counts))
    var_hits = counts * p * (1 - p) + (n - counts) * q * (1 - q)
    return var_hits / (n**2 * (p - q) ** 2)


def sigmoid(eps: float) -> float:
    return 1.0 / (1.0 + math.exp(-eps))


def noisy_sampling_epsilon(eps_alpha: float, eps_beta: float, K: int) -> float:
    """Worst log-ratio of K noisy samples of a permanent response (all-ones count)."""
    a, b = sigmoid(eps_alpha), sigmoid(eps_beta)
    given_one = a * b**K + (1 - a) * (1 - b) ** K
    given_zero = a * (1 - b) ** K + (1 - a) * b**K
    return math.log(given_one / given_zero)


def noisy_sampling_variance(eps_alpha: float, eps_beta: float, n: int, K: int) -> float:
    """Variance of the two-stage decode over n clients with K samples each."""
    a, b = sigmoid(eps_alpha), sigmoid(eps_beta)
    per_client = a * (1 - a) + b * (1 - b) / (K * (2 * b - 1) ** 2)
    return per_client / (n * (2 * a - 1) ** 2)


def schedule_from_config(raw: dict) -> list:
    sched = raw["schedule"]
    if sched["kind"] == "list":
        return [float(e) for e in sched["epsilons"]]
    if sched["kind"] == "linear":
        rounds = int(math.floor((sched["stop"] - sched["start"]) / sched["stride"] + 1e-9)) + 1
        return [sched["start"] + i * sched["stride"] for i in range(rounds)]
    return [
        noisy_sampling_epsilon(sched["eps_alpha"], sched["eps_beta"], k)
        for k in range(1, sched["rounds"] + 1)
    ]


def check_close(got, want, rtol, what) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if not np.allclose(got, want, rtol=rtol, atol=0.0):
        worst = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return [f"{what}: relative deviation {worst:.3e} > {rtol:.0e}"]
    return []


def check_schedule(epsilons, raw: dict) -> list:
    return check_close(epsilons, schedule_from_config(raw), THEORY_RTOL, "schedule")


def check_frequency_estimates(est_mean, var_theory, epsilons, counts, trials: int) -> list:
    """Theory matches the fixed-population variance; means sit within the bound."""
    counts = np.asarray(counts, dtype=float)
    truth = counts / counts.sum()
    want = np.stack([frequency_variance(counts, eps) for eps in epsilons])
    failures = check_close(var_theory, want, THEORY_RTOL, "est_var_theory")
    z = z_two_sided(want.size)
    excess = np.abs(np.asarray(est_mean) - truth) / np.sqrt(want / trials)
    if not np.all(excess <= z):
        failures.append(f"est_mean off the true frequency by {float(excess.max()):.2f} sd > {z:.2f}")
    return failures


def check_attack_errors(err_mean, floor, epsilons, m: int, n_eval: int, trials: int) -> list:
    """The reported floor is the Bayes error; no attack beats it beyond sampling noise."""
    want = np.array([error_floor(eps, m) for eps in epsilons])
    failures = check_close(floor, want, THEORY_RTOL, "min_error_rate")
    err_mean = np.asarray(err_mean, dtype=float)
    p = np.minimum(0.5, np.maximum(want[:, None], err_mean))
    slack = z_two_sided(err_mean.size) * np.sqrt(p * (1 - p) / (trials * n_eval))
    below = want[:, None] - slack - err_mean
    if np.any(below > 0):
        failures.append(f"attack error below the floor by {float(below.max()):.3e} beyond the bound")
    return failures


def check_last_output_is_mle(last_output, mle) -> list:
    """Collusion-proofness: the full-sequence MLE guesses the last output."""
    if not np.array_equal(np.asarray(last_output), np.asarray(mle)):
        return ["last-output and MLE attack errors differ"]
    return []


def check_variances(empirical, theory, trials: int, what: str) -> list:
    """Across-trial sample variances lie within chi-square bounds of theory."""
    empirical, theory = np.asarray(empirical, dtype=float), np.asarray(theory, dtype=float)
    dof = trials - 1
    alpha = FAMILY_ALPHA / empirical.size
    lo, hi = chi2_quantile(alpha / 2, dof) / dof, chi2_quantile(1 - alpha / 2, dof) / dof
    ratio = empirical / theory
    if not np.all((ratio >= lo) & (ratio <= hi)):
        worst = float(ratio[np.argmax(np.abs(np.log(ratio)))])
        return [f"{what}: empirical/theory variance {worst:.3f} outside [{lo:.3f}, {hi:.3f}]"]
    return []


def check_kernel_rows(rows) -> list:
    """Marginal invariance: relaxing an eps1 response yields the eps2 response."""
    failures = []
    for m, eps_prev, eps_next, p_aa, _p_bb, p_ba in rows:
        p1, _ = rr_probs(eps_prev, int(m))
        p2, _ = rr_probs(eps_next, int(m))
        if abs(p1 * p_aa + (1 - p1) * p_ba - p2) > EXACT_TOL:
            failures.append(f"kernel m={m} {eps_prev}->{eps_next} breaks marginal invariance")
    return failures


def posterior_failures(posteriors, last_outputs, epsilons, m: int) -> np.ndarray:
    """Per-step flags: the full-chain posterior must equal the last-output posterior.

    Under a uniform prior the posterior from the last output alone is the
    randomized-response row itself, so it needs no normalisation.
    """
    posteriors = np.asarray(posteriors)
    big = np.exp(np.asarray(epsilons, dtype=float))
    want = np.repeat((1.0 / (big + m - 1))[:, None], m, axis=1)
    want[np.arange(len(want)), last_outputs] = big / (big + m - 1)
    bad_sum = np.abs(posteriors.sum(axis=1) - 1.0) > EXACT_TOL
    bad_value = np.any(np.abs(posteriors - want) > EXACT_TOL, axis=1)
    return bad_sum | bad_value


def marginal_failures(retained, eps: float, m: int, levels: int) -> bool:
    """Whether the share of outputs equal to the truth misses its retain probability."""
    retained = np.asarray(retained, dtype=bool)
    p, _ = rr_probs(eps, m)
    sd = math.sqrt(p * (1 - p) / retained.size)
    return abs(float(retained.mean()) - p) > z_two_sided(levels) * sd

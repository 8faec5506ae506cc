import io
import math

import numpy as np
import pytest

from drifterm.mixing import m_beta
from drifterm.processes import (
    TRUNC_LIMIT,
    TRUNC_SD,
    TRUNC_SUPPORT,
    CovariateLaw,
    DependenceCore,
    DriftSpec,
    ProcessKind,
    ProcessSpec,
    ProcessSpecError,
    beta_path,
    mixing_profile,
    pcg64_words,
    population_optimum_next,
    population_optimum_weighted,
    law_second_moment,
    read_path_csv,
    seed_states,
    sigma2_path,
    simulate,
    spawn_seeds,
    word_seeds,
    write_path_csv,
)
from drifterm.weights import WeightFamily, WeightSpec, _from_entries, make_weights


def linear_spec(n=200, p=2, core=None, noise_sd=0.3, drift=None, law=CovariateLaw.BALL):
    return ProcessSpec(
        kind=ProcessKind.DRIFTING_LINEAR,
        n=n,
        p=p,
        law=law,
        core=core or DependenceCore(),
        drift=drift or DriftSpec.constant([0.3, -0.2][:p]),
        noise_sd=noise_sd,
        y_bound=2.0,
    )


def uniform_w(n):
    return make_weights(WeightSpec(WeightFamily.UNIFORM_WINDOW, t=n, n=n, param=n))


class TestSimulate:
    def test_deterministic_regeneration(self):
        spec = linear_spec()
        a, b = simulate(spec, 123), simulate(spec, 123)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        c = simulate(spec, 124)
        assert not np.array_equal(a.y, c.y)

    def test_noiseless_stationary_exact(self):
        spec = linear_spec(noise_sd=0.0)
        path = simulate(spec, 5)
        betas = beta_path(spec)
        np.testing.assert_allclose(path.y, np.einsum("tp,tp->t", betas, path.z), atol=1e-15)

    def test_length_and_bound(self):
        spec = linear_spec(n=500)
        path = simulate(spec, 9)
        assert path.y.shape == (501,)
        assert path.z.shape == (501, 2)
        assert np.abs(path.y).max() <= spec.y_bound
        assert np.sqrt((path.z**2).sum(axis=1)).max() <= 1.0 + 1e-12

    def test_variance_drift_block_means(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_VARIANCE,
            n=4000,
            p=1,
            law=CovariateLaw.INTERVAL,
            core=DependenceCore(),
            mean=1.5,
            var_start=1.0,
            var_end=4.0,
            y_bound=1.5 + 2.0 * 4.01,
        )
        path = simulate(spec, 11)
        sd_bound = math.sqrt(spec.var_end)
        for block in np.array_split(path.y, 4):
            se = sd_bound / math.sqrt(len(block))
            assert abs(block.mean() - 1.5) <= 4 * se

    def test_envelope_validation(self):
        with pytest.raises(ProcessSpecError):
            ProcessSpec(
                kind=ProcessKind.DRIFTING_LINEAR,
                n=10,
                p=1,
                law=CovariateLaw.BALL,
                core=DependenceCore(),
                drift=DriftSpec.constant([1.0]),
                noise_sd=1.0,
                y_bound=2.0,  # needs ~1 + 4.002
            )

    @pytest.mark.parametrize(
        "kind, a, b, at",
        [
            ("wobble", (0.1,), None, None),
            ("linear", (0.1,), None, None),
            ("sinusoidal", (0.1,), (0.2, 0.3), None),
            ("switch", (0.1,), (0.2,), None),
        ],
    )
    def test_drift_validation(self, kind, a, b, at):
        with pytest.raises(ProcessSpecError):
            DriftSpec(kind, a, b, at=at)

    def test_covariate_second_moment_matches(self):
        spec = linear_spec(n=100_000, p=3, drift=DriftSpec.constant([0.1, 0.1, 0.1]))
        path = simulate(spec, 21)
        emp = path.z.T @ path.z / path.z.shape[0]
        M = law_second_moment(spec.law, spec.p)
        # var of z_j^2 for uniform on [-a, a] is a^4 * 4/45 with a^2 = 1/p
        se_diag = math.sqrt(4.0 / 45.0) * (1.0 / spec.p) / math.sqrt(path.z.shape[0])
        se_off = (1.0 / (3 * spec.p)) / math.sqrt(path.z.shape[0])
        for i in range(3):
            for j in range(3):
                se = se_diag if i == j else se_off
                assert abs(emp[i, j] - M[i, j]) <= 4 * se

    def test_markov_core_transitions(self):
        spec = linear_spec(
            n=40_000,
            p=1,
            core=DependenceCore(kind="markov", flip=0.2),
            drift=DriftSpec.constant([0.5]),
            law=CovariateLaw.INTERVAL,
        )
        path = simulate(spec, 31)
        states = (path.z[:, 0] >= 0.5).astype(int)
        flips = states[1:] != states[:-1]
        rate = flips.mean()
        se = math.sqrt(0.2 * 0.8 / len(flips))
        assert abs(rate - 0.2) <= 4 * se

    def test_ar1_core_marginal_uniform(self):
        spec = linear_spec(n=50_000, p=1, core=DependenceCore(kind="ar1", phi=0.6),
                           drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        path = simulate(spec, 41)
        u = path.z[:, 0]
        # moments of U(0,1) within 4 MC standard errors
        assert abs(u.mean() - 0.5) <= 4 * (1 / math.sqrt(12 * len(u)))
        assert abs((u**2).mean() - 1 / 3) <= 4 * math.sqrt(4 / 45 / len(u))
        # positive serial correlation appears through the latent chain
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert corr > 0.4

    def test_ar1_core_at_phi_zero_is_the_innovations(self):
        # the filter with a zero pole passes the i.i.d. N(0, 1) innovations through
        from scipy.special import ndtr

        spec = linear_spec(n=20, p=1, core=DependenceCore(kind="ar1", phi=0.0),
                           drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
        rng = np.random.default_rng(5)
        rng.standard_normal(1)  # the stationary start, which phi = 0 forgets
        np.testing.assert_array_equal(simulate(spec, 5).z, ndtr(rng.standard_normal((21, 1))))


def reference_path(spec, seed):
    """One path drawn on its own, as the generator made it before blocks:
    (y, z, the number of noise entries redrawn)."""
    from scipy.signal import lfilter
    from scipy.special import ndtr

    rng = np.random.default_rng(seed)
    rows, p, core = spec.n + 1, spec.p, spec.core
    if core.kind == "iid":
        u = rng.random((rows, p))
    elif core.kind == "ar1":
        x0 = rng.standard_normal(p)
        e = rng.standard_normal((rows, p)) * math.sqrt(1.0 - core.phi**2)
        u = ndtr(lfilter([1.0], [1.0, -core.phi], e, axis=0, zi=(core.phi * x0)[None, :])[0])
    else:
        s0 = rng.random() < 0.5
        flips = rng.random(rows - 1) < core.flip
        states = (int(s0) + np.concatenate([[0], np.cumsum(flips) % 2])) % 2
        u = rng.random((rows, p))
        u[:, 0] = (states + u[:, 0]) / 2.0
    z = (2.0 * u - 1.0) / math.sqrt(p) if spec.law is CovariateLaw.BALL else u
    noise, redrawn = rng.standard_normal(rows), 0
    bad = np.abs(noise) > TRUNC_LIMIT
    while bad.any():
        redrawn += int(bad.sum())
        noise[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(noise) > TRUNC_LIMIT
    noise /= TRUNC_SD
    if spec.kind is ProcessKind.DRIFTING_VARIANCE:
        return spec.mean + np.sqrt(sigma2_path(spec)) * noise, z, redrawn
    return np.einsum("tp,tp->t", beta_path(spec), z) + noise * spec.noise_sd, z, redrawn


BLOCK_CORES = {"iid": DependenceCore(), "ar1": DependenceCore(kind="ar1", phi=0.6),
               "markov": DependenceCore(kind="markov", flip=0.2)}
BLOCK_CASES = [(core, "ball", "drifting_linear", p) for core in BLOCK_CORES for p in (1, 2, 3)] + [
    (core, "interval", kind, 1) for core in BLOCK_CORES for kind in ("drifting_linear", "drifting_variance")
]


@pytest.mark.parametrize("core, law, kind, p", BLOCK_CASES, ids=lambda v: str(v))
def test_block_rows_are_the_paths_of_their_seeds(core, law, kind, p):
    """A block of seeds gives, row by row and bit for bit, the path each seed
    gives alone, a path whose noise needs a rejection redraw included."""
    if kind == "drifting_variance":
        spec = ProcessSpec(kind=ProcessKind.DRIFTING_VARIANCE, n=300, p=1, law=CovariateLaw.INTERVAL,
                           core=BLOCK_CORES[core], mean=0.2, var_start=0.5, var_end=1.5, y_bound=6.0)
    else:
        spec = linear_spec(n=300, p=p, core=BLOCK_CORES[core], law=CovariateLaw(law),
                           drift=DriftSpec.linear([0.3, -0.2, 0.1][:p], [-0.3, 0.2, 0.0][:p]))
    redraw_seed = next(s for s in range(10_000) if reference_path(spec, s)[2])
    seeds = [7, redraw_seed, 8, 9]
    block = simulate(spec, seeds)
    assert block.y.shape == (4, 301) and block.z.shape == (4, 301, p)
    for r, seed in enumerate(seeds):
        y, z, _ = reference_path(spec, seed)
        alone = simulate(spec, seed)
        for values in (block.y[r], alone.y):
            assert values.tobytes() == y.tobytes()
        for values in (block.z[r], alone.z):
            assert values.tobytes() == z.tobytes()


class TestPopulationOptima:
    def test_stationary_matches_constant(self):
        spec = linear_spec()
        w = uniform_w(spec.n)
        np.testing.assert_allclose(population_optimum_weighted(spec, w), [0.3, -0.2])

    def test_two_regime_average(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR,
            n=100,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=DriftSpec.switch([1.0, 0.0], [0.0, 1.0], at=50),
            noise_sd=0.0,
            y_bound=1.5,
        )
        w = uniform_w(100)
        np.testing.assert_allclose(population_optimum_weighted(spec, w), [0.5, 0.5])

    def test_point_mass_weight(self):
        spec = linear_spec(drift=DriftSpec.linear([0.0, 0.0], [0.4, -0.4]))
        entries = np.zeros(spec.n)
        entries[-1] = 1.0
        got = population_optimum_weighted(spec, _from_entries(entries))
        np.testing.assert_allclose(got, beta_path(spec)[spec.n - 1])

    def test_next_reads_drift(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_LINEAR,
            n=100,
            p=2,
            law=CovariateLaw.BALL,
            core=DependenceCore(),
            drift=DriftSpec.switch([1.0, 0.0], [0.0, 1.0], at=50),
            noise_sd=0.0,
            y_bound=1.5,
        )
        np.testing.assert_allclose(population_optimum_next(spec, 100), [0.0, 1.0])
        np.testing.assert_allclose(population_optimum_next(spec, 10), [1.0, 0.0])
        with pytest.raises(IndexError, match=r"target time 102 outside 2\.\.n\+1"):
            population_optimum_next(spec, 101)
        with pytest.raises(IndexError, match=r"target time 1 outside 2\.\.n\+1"):
            population_optimum_next(spec, 0)

    def test_variance_kind_constant_predictor(self):
        spec = ProcessSpec(
            kind=ProcessKind.DRIFTING_VARIANCE,
            n=50,
            p=1,
            law=CovariateLaw.INTERVAL,
            core=DependenceCore(),
            mean=0.7,
            var_start=1.0,
            var_end=2.0,
            y_bound=0.7 + math.sqrt(2) * 4.01,
        )
        w = uniform_w(50)
        assert population_optimum_weighted(spec, w)[0] == 0.7
        assert population_optimum_next(spec, 25)[0] == 0.7

    def test_uniform_weights_match_next_under_stationarity(self):
        spec = linear_spec()
        w = uniform_w(spec.n)
        np.testing.assert_allclose(
            population_optimum_weighted(spec, w), population_optimum_next(spec, spec.n)
        )

    def test_weight_length_must_be_n(self):
        with pytest.raises(ProcessSpecError, match=r"^weight length 199 != n=200$"):
            population_optimum_weighted(linear_spec(), uniform_w(199))


class TestMixingProfileOfSpec:
    def test_iid_profile(self):
        prof = mixing_profile(linear_spec())
        assert prof.beta(1) == 0.0
        assert m_beta(prof, 100, 0.05).m == 1

    def test_ar1_profile_envelope_scales_with_chains(self):
        spec = linear_spec(p=2, core=DependenceCore(kind="ar1", phi=0.5))
        prof = mixing_profile(spec)
        assert prof.beta(3) == pytest.approx(min(1.0, 2 * 0.5**3))
        assert prof.rho(3) == pytest.approx(0.5**3)

    def test_markov_profile_exact(self):
        spec = linear_spec(
            p=1,
            core=DependenceCore(kind="markov", flip=0.1),
            drift=DriftSpec.constant([0.5]),
            law=CovariateLaw.INTERVAL,
        )
        prof = mixing_profile(spec)
        assert prof.beta(1) == pytest.approx(0.4, abs=1e-12)


def test_truncated_noise_constants_pinned():
    # P(|x| <= 4) is math.erf(4 / sqrt 2), the same double as 2 ndtr(4) - 1
    assert repr(TRUNC_SD) == "0.9994645018070796"
    assert repr(TRUNC_SUPPORT) == "4.002143140419504"


def test_sigma2_path_endpoints():
    spec = ProcessSpec(
        kind=ProcessKind.DRIFTING_VARIANCE,
        n=2000,
        p=1,
        law=CovariateLaw.INTERVAL,
        core=DependenceCore(),
        mean=0.0,
        var_start=1.0,
        var_end=11.0,
        y_bound=math.sqrt(11) * 4.01,
    )
    var = sigma2_path(spec)
    assert var[0] == 1.0 and var[-1] == 11.0
    assert len(var) == 2001


def test_each_path_refuses_the_other_kind():
    variance = ProcessSpec(ProcessKind.DRIFTING_VARIANCE, 10, 1, CovariateLaw.INTERVAL, DependenceCore(),
                           y_bound=5.0)
    with pytest.raises(ProcessSpecError, match="^coefficient path is defined for the drifting-linear kind$"):
        beta_path(variance)
    with pytest.raises(ProcessSpecError, match="^variance path is defined for the variance-drift kind$"):
        sigma2_path(linear_spec())


def test_second_moment_smallest_eigenvalue():
    # bit for bit the closed form 1/(3p) that the linear class's c_inf reads
    for p in range(1, 9):
        spec = linear_spec(p=p, drift=DriftSpec.constant([0.1] * p))
        assert np.linalg.eigvalsh(law_second_moment(spec.law, spec.p))[0] == 1.0 / (3.0 * p)
    spec = linear_spec(p=1, drift=DriftSpec.constant([0.5]), law=CovariateLaw.INTERVAL)
    assert np.linalg.eigvalsh(law_second_moment(spec.law, spec.p))[0] == 1.0 / 3.0


def test_path_csv_round_trip():
    spec = linear_spec(n=40, p=3, drift=DriftSpec.constant([0.3, -0.2, 0.1]))
    path = simulate(spec, 11)
    out = io.StringIO()
    write_path_csv(path, out)
    back = read_path_csv(out.getvalue(), spec, "path.csv")
    np.testing.assert_array_equal(back.y, path.y)
    np.testing.assert_array_equal(back.z, path.z)
    with pytest.raises(ProcessSpecError, match=r"^path\.csv line 1: expected the header 't,y,z_1,z_2'"):
        read_path_csv(out.getvalue(), linear_spec(n=40), "path.csv")
    with pytest.raises(ProcessSpecError, match=r"^path\.csv: expected n\+1 = 42 rows, got 41"):
        read_path_csv(out.getvalue(), linear_spec(n=41, p=3, drift=spec.drift), "path.csv")


class TestBetaPathMemo:
    def test_read_only(self):
        betas = beta_path(linear_spec(drift=DriftSpec.linear([0.3, -0.2], [0.1, 0.4])))
        assert not betas.flags.writeable
        with pytest.raises(ValueError):
            betas[0, 0] = 1.0

    def test_equal_specs_give_equal_paths(self):
        drift = DriftSpec.sinusoidal([0.3, -0.2], [0.2, 0.15], cycles=3.0)
        a = beta_path(linear_spec(n=300, drift=drift))
        b = beta_path(linear_spec(n=300, drift=DriftSpec.sinusoidal((0.3, -0.2), (0.2, 0.15), 3)))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, drift.path(300))
        assert beta_path(linear_spec(n=301, drift=drift)).shape == (302, 2)

    def test_list_valued_drift_is_normalised(self):
        drift = DriftSpec("linear", [0, 1], [np.float64(0.5), 0])
        assert drift.a == (0.0, 1.0) and drift.b == (0.5, 0.0)
        assert all(type(v) is float for v in drift.a + drift.b)
        assert drift == DriftSpec.linear((0.0, 1.0), (0.5, 0.0))
        betas = beta_path(linear_spec(n=4, noise_sd=0.1, drift=drift))
        np.testing.assert_allclose(betas[-1], [0.5, 0.0])


class TestSecondMomentMemo:
    @pytest.mark.parametrize("law, p", [(CovariateLaw.BALL, 2), (CovariateLaw.BALL, 5), (CovariateLaw.INTERVAL, 1)])
    def test_read_only_and_shared(self, law, p):
        M = law_second_moment(law, p)
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        # every later call with the same law and p shares the matrix
        assert law_second_moment(law, p) is M
        expected = np.eye(p) / (3.0 * p) if law is CovariateLaw.BALL else np.array([[1.0 / 3.0]])
        np.testing.assert_array_equal(M, expected)


def uint32_words(value):
    """A non-negative int's uint32 words, low word first, at least one."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


# Both sides of the one-word boundary, 2^64 - 1, and 3^90 > 2^128: more words than the pool of 4.
SEED_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 3**90]


class TestSeedStates:
    """seed_states and pcg64_words against np.random.SeedSequence, the oracle."""

    @pytest.mark.parametrize("n_words", range(1, 9))
    @pytest.mark.parametrize("value", SEED_ENTROPIES)
    def test_matches_seed_sequence_of_an_int(self, value, n_words):
        entropy = np.array([uint32_words(value)], dtype=np.uint32)
        state = seed_states(entropy, n_words)
        assert state.shape == (1, n_words) and state.dtype == np.uint64
        np.testing.assert_array_equal(state[0], np.random.SeedSequence(value).generate_state(n_words, np.uint64))

    @pytest.mark.parametrize("k", range(0, 11))
    def test_rows_of_every_length_hash_as_one_array(self, k):
        """Random rows of k words, shorter than the pool, as long, and longer."""
        entropy = np.random.default_rng(k).integers(0, 2**32, size=(7, k), dtype=np.uint32)
        states = seed_states(entropy, 5)
        assert states.shape == (7, 5) and states.dtype == np.uint64
        for row, state in zip(entropy, states):
            np.testing.assert_array_equal(state, np.random.SeedSequence(row.tolist()).generate_state(5, np.uint64))

    @pytest.mark.parametrize("base_seed", SEED_ENTROPIES)
    def test_spawn_seeds_are_the_seed_sequence_seeds_of_their_keys(self, base_seed):
        """Keys of one to four entries with entries of one and of two words, in no order."""
        keys = [(0,), (5, 2**32), (1, 2, 3, 4), (2**40 + 3, 0, 7, 1), (1, 2, 3, 5), (2**64 - 1,), (0, 0, 0, 0)]
        seeds = spawn_seeds(base_seed, keys)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [int(np.random.SeedSequence(base_seed, spawn_key=key).generate_state(1, np.uint64)[0])
                                  for key in keys]

    def test_pcg64_words_are_the_words_pcg64_reads(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12_345_678_901_234_567_890]
        words = pcg64_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            np.testing.assert_array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_a_word_seed_builds_the_generator_of_its_int(self):
        seeds = [0, 7, 2**32 - 1, 2**32 + 5, 2**64 - 1]
        for seed, word_seed in zip(seeds, word_seeds(seeds, pcg64_words(np.array(seeds, dtype=np.uint64)))):
            assert word_seed == seed
            a, b = np.random.default_rng(word_seed), np.random.default_rng(seed)
            assert a.bit_generator.state == b.bit_generator.state
            np.testing.assert_array_equal(a.random(5), b.random(5))
            np.testing.assert_array_equal(a.standard_normal(5), b.standard_normal(5))
            assert a.bit_generator.state == b.bit_generator.state
            # any other request is the int's own SeedSequence
            np.testing.assert_array_equal(word_seed.generate_state(3), np.random.SeedSequence(seed).generate_state(3))

    @pytest.mark.parametrize("core", ["iid", "ar1", "markov"])
    def test_word_seeds_simulate_the_paths_of_their_ints(self, core):
        spec = linear_spec(n=100, core=BLOCK_CORES[core])
        seeds = [3, 2**40 + 1, 9]
        block = simulate(spec, word_seeds(seeds, pcg64_words(np.array(seeds, dtype=np.uint64))))
        plain = simulate(spec, seeds)
        assert block.y.tobytes() == plain.y.tobytes() and block.z.tobytes() == plain.z.tobytes()

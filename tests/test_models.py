"""Generator distribution checks, determinism, and dataset file format."""

import hashlib
import io
import math
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from circlab import models as mod
from circlab.errors import DomainError, ParameterError

TWO_PI = 2.0 * math.pi


class TestCanonicalAngle:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_in_range(self, x):
        r = mod.canonical_angle(x)
        assert 0.0 <= r < TWO_PI

    def test_tiny_negative(self):
        r = mod.canonical_angle(-1e-20)
        assert 0.0 <= r < TWO_PI

    def test_array(self):
        r = mod.canonical_angle(np.array([-0.1, 0.0, 7.0, -1e-20]))
        assert np.all((r >= 0.0) & (r < TWO_PI))


class TestSeedDerivation:
    def test_mix_is_stable_and_tag_sensitive(self):
        a = mod.derive_seed(1, 2, 3)
        assert a == mod.derive_seed(1, 2, 3)
        assert a != mod.derive_seed(1, 2, 4)
        assert a != mod.derive_seed(1, 3, 2)
        assert 0 <= a < 2 ** 64

    def test_rng_for_streams(self):
        x = mod.rng_for(9, 1, 0).random(4)
        y = mod.rng_for(9, 1, 0).random(4)
        z = mod.rng_for(9, 1, 1).random(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


class TestChunkSeeding:
    """``rngs_for`` seeds a chunk's streams in one pass, each equal to
    ``rng_for``'s. It copies numpy's SeedSequence and PCG64 seeding, so a
    numpy that changes them fails here, and says so."""

    SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1, -5]
    TAGS = [(101, 3, 1), (2 ** 63 + 7, 2), ()]
    TRIALS = [range(0, 64), range(2 ** 32 - 40, 2 ** 32 + 40),
              range(2 ** 63 - 2, 2 ** 63 + 2)]

    @staticmethod
    def moved(what):
        return (f"{what} differs from rng_for's under numpy {np.__version__}: "
                f"rngs_for copies numpy's SeedSequence and PCG64 seeding")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_rng_for(self, seed):
        for tags in self.TAGS:
            for trials in self.TRIALS:
                streams = mod.rngs_for(seed, *tags, trials=trials)
                for t, rng in zip(trials, streams, strict=True):
                    want = mod.rng_for(seed, *tags, t)
                    where = f"stream {(seed, *tags, t)}"
                    assert rng.bit_generator.state == want.bit_generator.state, \
                        self.moved(f"the state of {where}")
                    assert np.array_equal(rng.random(1000), want.random(1000)), \
                        self.moved(f"the first 1000 draws of {where}")
                    assert np.array_equal(rng.integers(0, 7, 5),
                                          want.integers(0, 7, 5)), \
                        self.moved(f"the bounded draws of {where}")

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    def test_pcg64_seeding(self, seed):
        # Below 2^32 a seed is one entropy word, from 2^32 on two.
        state = np.random.PCG64(seed).state["state"]
        got = mod._pcg64_states(np.array([seed], dtype=np.uint64))
        assert got == [(state["state"], state["inc"])], \
            self.moved(f"PCG64({seed})")

    def test_empty_chunk(self):
        assert list(mod.rngs_for(1, 2, trials=range(0))) == []

    def test_one_generator_is_reused(self):
        streams = list(mod.rngs_for(1, 2, trials=range(3)))
        assert streams[0] is streams[1] is streams[2]


class TestRowDrawer:
    """``draw_row`` draws ``gen_flat``'s and ``gen_community``'s angles, bit
    for bit, into a row the caller owns, and leaves the stream where they do."""

    @pytest.mark.parametrize("signal", [mod.HardCluster(0.05), mod.VonMises(5.0)],
                             ids=["hard", "vm"])
    @pytest.mark.parametrize("h1", [False, True], ids=["H0", "H1"])
    @pytest.mark.parametrize("kind,size,k", [("flat", 300, 12), ("flat", 20, 20),
                                             ("comm", 12, 5), ("comm", 6, 6)])
    def test_equals_generators(self, kind, size, k, h1, signal):
        edges = kind == "comm"
        width = size * (size - 1) // 2 if edges else size
        for seed in range(4):
            want_rng, rng = mod.rng_for(seed, 11), mod.rng_for(seed, 11)
            if edges:
                want = mod.gen_community(size, k, signal, h1, want_rng)
                angles, truth = want.edge_angles, want.truth
                members = truth and truth.community
            else:
                want = mod.gen_flat(size, k, signal, h1, want_rng)
                angles, truth = want.angles, want.truth
                members = truth and truth.subset
            block = np.full((3, width), np.nan)  # a stale row is overwritten
            planted = mod.draw_row(block[1], size, k, signal, h1, rng, edges)
            assert np.array_equal(block[1], angles)
            assert np.isnan(block[[0, 2]]).all()
            if h1:
                assert planted == (members, truth.theta_star)
            else:
                assert planted is None and truth is None
            assert stream_tail(rng) == stream_tail(want_rng)

    @pytest.mark.parametrize("size,k,edges,message", [
        (5, 6, False, "need 1 <= K <= N, got N=5, K=6"),
        (4, 5, True, "need 2 <= k <= n, got n=4, k=5"),
        (9, 1, True, "need 2 <= k <= n, got n=9, k=1"),
        (9.5, 3, True, "n must be an integer, got 9.5"),
        (9, True, True, "k must be an integer, got True"),
        ("30", 3, False, "N must be an integer, got '30'")])
    def test_check_sizes(self, size, k, edges, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            mod.check_sizes(size, k, edges)


class TestChunkDrawer:
    """``draw_chunk`` draws each trial's row, theta and subset as ``draw_row``
    does on ``rng_for(seed, *tags, t)``. Under H1 it reads the subset's
    words and theta as raw 64-bit outputs and copies numpy's bounded draws,
    and it runs a batch's von Mises rounds on gathered uniforms, so a numpy
    that changes either fails here, and says so."""

    SIGNALS = {"hard": mod.HardCluster(0.05), "vm": mod.VonMises(5.0)}

    @staticmethod
    def moved(what):
        return (f"{what} differs from draw_row's under numpy {np.__version__}: "
                f"draw_chunk copies numpy's 32-bit Lemire draws, the low-first "
                f"halves of next_uint32 and next_double, and counts on float64 "
                f"cos, log and arccos giving an element the same bits whatever "
                f"the array's length, offset or stride")

    def check(self, size, k, signal, h1, edges, seed, tags, trials, block):
        width = size * (size - 1) // 2 if edges else size
        rows = np.full((len(trials) if block else 1, width), np.nan)
        want_row = np.empty(width)
        drawn = mod.draw_chunk(rows, size, k, signal, h1, seed, tags, trials,
                               edges)
        wants = []
        for i, (t, (row, planted)) in enumerate(zip(trials, drawn, strict=True)):
            assert row.ctypes.data == rows[i % len(rows)].ctypes.data
            want = mod.draw_row(want_row, size, k, signal, h1,
                                mod.rng_for(seed, *tags, t), edges)
            where = f"trial {(seed, *tags, t)} at {(size, k)}"
            assert np.array_equal(row, want_row), self.moved(f"the row of {where}")
            if h1:
                assert tuple(planted[0].tolist()) == want[0], \
                    self.moved(f"the subset of {where}")
                assert planted[1] == want[1], self.moved(f"theta of {where}")
            else:
                assert planted is None and want is None
            wants.append(want_row.copy())
        if block:  # no later trial overwrote an earlier one's row
            assert np.array_equal(rows, wants)

    @pytest.mark.parametrize("signal", ["hard", "vm"])
    @pytest.mark.parametrize("h1", [False, True], ids=["H0", "H1"])
    @pytest.mark.parametrize("kind,size,k", [
        ("flat", 300, 12), ("flat", 300, 13), ("flat", 20, 20),
        ("flat", 2000, 41), ("flat", 4000, 60), ("flat", 1, 1),
        ("comm", 12, 5), ("comm", 12, 6), ("comm", 6, 6), ("comm", 2, 2)])
    def test_equals_draw_row(self, kind, size, k, h1, signal):
        for seed, block in ((3, False), (-5, True)):
            self.check(size, k, self.SIGNALS[signal], h1, kind == "comm",
                       seed, (101, 2, 1), range(60, 130), block)

    def test_batches(self):
        # 2000 planted angles a trial: batches of 8 trials.
        assert mod._PLANTED_BATCH // 2000 == 8
        self.check(2000, 2000, mod.HardCluster(0.3), True, False, 7, (5,),
                   range(20), True)
        self.check(2000, 2000, mod.VonMises(0.5), True, False, 7, (5,),
                   range(20), False)

    # m planted von Mises draws a trial: K = m, or C(k,2) = m; C(15,2) = 105
    # stands in for 100, which no community has.
    @pytest.mark.parametrize("kind,size,k", [
        ("flat", 40, 1), ("flat", 60, 10), ("flat", 300, 28), ("flat", 300, 45),
        ("flat", 500, 100), ("comm", 4, 2), ("comm", 9, 5), ("comm", 12, 8),
        ("comm", 10, 10), ("comm", 18, 15)])
    @pytest.mark.parametrize("kappa", [0.0, 1e-6, 0.1, 2.0, 20.0, 40.0, 1e3,
                                       1e10])
    def test_von_mises_rounds(self, kind, size, k, kappa):
        for seed, block in ((3, False), (-5, True)):
            self.check(size, k, mod.VonMises(kappa), True, kind == "comm",
                       seed, (101, 7, 1), range(60, 190), block)

    @pytest.mark.parametrize("kind,size,k", [("flat", 60, 10), ("comm", 9, 5),
                                             ("flat", 300, 45)])
    def test_rows_that_run_out_are_redrawn(self, monkeypatch, kind, size, k):
        # Room for m / 4 + 1 rejections a row, where kappa = 20 rejects about
        # m / 2: most rows run out, and some do not.
        monkeypatch.setattr(mod, "_von_mises_width",
                            lambda m: 3 * (m + m // 4 + 1))
        ran_out = []
        rows_drawer = mod._von_mises_rows

        def spy(block, kappa, m):
            out, short = rows_drawer(block, kappa, m)
            ran_out.extend(short.tolist())
            return out, short

        monkeypatch.setattr(mod, "_von_mises_rows", spy)
        for seed, block in ((3, False), (-5, True)):
            self.check(size, k, mod.VonMises(20.0), True, kind == "comm", seed,
                       (101, 7, 1), range(60, 190), block)
        assert len(ran_out) == 260
        assert len(ran_out) // 2 < sum(ran_out) < len(ran_out)

    @pytest.mark.parametrize("signal", ["hard", "vm"])
    def test_redrawn_word_falls_back_to_draw_row(self, signal):
        # Trial 11342 of these streams draws a word that numpy rejects at
        # (N, K) = (2000, 41); 1 trial in 116,000 does.
        seed, tags, size, k = 1, (101, 0, 1), 2000, 41
        rng = mod.rng_for(seed, *tags, 11342)
        raw = rng.bit_generator.random_raw(21)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:k]
        _, taken = mod._lemire32(words, np.arange(size, size - k, -1,
                                                  dtype=np.uint64))
        assert not taken.all()
        self.check(size, k, self.SIGNALS[signal], True, False, seed, tags,
                   range(11340, 11345), False)

    @pytest.mark.parametrize("n", [2 ** 31 - 7, 2 ** 31 + 5, 2 ** 32 - 3])
    def test_lemire32_equals_integers(self, n):
        # Near 2^31 and 2^32 numpy rejects up to half of the words. Each
        # range takes words, low half first, until one is taken.
        for seed in range(60):
            ranges = np.arange(n + 3, n - 57, -1, dtype=np.uint64)  # 2^32 too
            raw = mod.rng_for(seed, 4).bit_generator.random_raw(200)
            words = iter(np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel())
            got = []
            for r in ranges:
                draw, taken = mod._lemire32(next(words), r)
                while not taken:
                    draw, taken = mod._lemire32(next(words), r)
                got.append(int(draw))
            want = mod.rng_for(seed, 4).integers(0, ranges.astype(np.int64))
            assert got == want.tolist(), \
                self.moved(f"the bounded draws below {n + 3} of seed {seed}")


def _ecdf_sup_dev(draws, cdf):
    xs = np.sort(draws)
    n = xs.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    theo = cdf(xs)
    return max(np.max(np.abs(emp_hi - theo)), np.max(np.abs(theo - emp_lo)))


class TestVonMisesSampler:
    def test_kappa_zero_uniform(self):
        rng = mod.rng_for(5, 0)
        draws = mod.sample_von_mises(0.0, 0.0, rng, 100_000)
        assert _ecdf_sup_dev(draws, lambda x: x / TWO_PI) < 0.01

    def test_concentrated_mean(self):
        rng = mod.rng_for(5, 1)
        draws = mod.sample_von_mises(1.0, 50.0, rng, 100_000)
        mean = math.atan2(np.sin(draws).mean(), np.cos(draws).mean())
        assert abs(mean - 1.0) < 0.01

    @pytest.mark.parametrize("theta,kappa", [(0.7, 0.8), (4.0, 3.5)])
    def test_cdf_matches_quadrature(self, theta, kappa):
        rng = mod.rng_for(5, 2)
        draws = mod.sample_von_mises(theta, kappa, rng, 100_000)
        density = lambda t: math.exp(kappa * (math.cos(t - theta) - 1.0))
        norm = quad(density, 0.0, TWO_PI, limit=200)[0]

        def cdf(x):
            out = np.empty_like(x)
            for i, xi in enumerate(np.atleast_1d(x)):
                out[i] = quad(density, 0.0, xi, limit=200)[0] / norm
            return out

        grid_dev = _ecdf_sup_dev(draws[:20_000], cdf)
        assert grid_dev < 0.02

    def test_scalar_return(self):
        rng = mod.rng_for(5, 3)
        x = mod.sample_von_mises(0.3, 2.0, rng)
        assert isinstance(x, float) and 0 <= x < TWO_PI

    @pytest.mark.parametrize("kappa", [2e10, 1e17, 1e200, pytest.param(
        10 ** 400, id="10**400")])
    def test_kappa_above_sampler_limit_rejected(self, kappa):
        with pytest.raises(DomainError):
            mod.VonMises(kappa)

    def test_sampler_limit_is_1e10(self):
        mod.VonMises(1e10)
        draws = mod.sample_von_mises(0.0, 1e10, mod.rng_for(5, 4), 1000)
        assert draws.shape == (1000,)
        with pytest.raises(DomainError):
            mod.sample_von_mises(0.0, 2e10, mod.rng_for(5, 4), 3)

    def test_huge_kappa_draw_returns(self):
        # A kappa this large once made the rejection loop spin forever.
        code = ("import numpy as np; from circlab import models as m\n"
                "m.sample_von_mises(0.0, 1e17, np.random.default_rng(1), 3)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60)
        assert r.returncode != 0 and "DomainError" in r.stderr


class TestArcSampler:
    @pytest.mark.parametrize("tau", [0, -0.1, 1.5, math.nan, math.inf,
                                     pytest.param(10 ** 400, id="10**400")])
    def test_tau_out_of_range_rejected(self, tau):
        with pytest.raises(DomainError, match=r"^tau must be in \(0, 1\]"):
            mod.HardCluster(tau)

    def test_full_arc_is_uniform(self):
        rng = mod.rng_for(6, 0)
        draws = mod.sample_arc_uniform(0.4, 1.0, rng, 100_000)
        assert _ecdf_sup_dev(draws, lambda x: x / TWO_PI) < 0.01

    def test_support(self):
        rng = mod.rng_for(6, 1)
        draws = mod.sample_arc_uniform(0.0, 0.25, rng, 10_000)
        assert np.all((draws >= 0.0) & (draws <= math.pi / 2))

    def test_wraparound_masses(self):
        rng = mod.rng_for(6, 2)
        theta = 3 * math.pi / 2
        draws = mod.sample_arc_uniform(theta, 0.5, rng, 100_000)
        hi = np.count_nonzero(draws >= theta)
        lo = np.count_nonzero(draws <= math.pi / 2)
        assert hi + lo == draws.size
        assert abs(hi / draws.size - 0.5) < 0.01


class TestGenFlat:
    def test_h0_no_truth(self):
        s = mod.gen_flat(50, 5, mod.HardCluster(0.1), False, mod.rng_for(1, 0))
        assert s.truth is None and s.angles.size == 50
        assert np.all((s.angles >= 0) & (s.angles < TWO_PI))

    def test_hard_cluster_containment_exact(self):
        # every planted angle lies in the closed arc, over many seeded draws
        for seed in range(300):
            s = mod.gen_flat(40, 6, mod.HardCluster(0.05), True,
                             mod.rng_for(seed, 1))
            gap = np.mod(s.angles[list(s.truth.subset)] - s.truth.theta_star,
                         TWO_PI)
            assert np.all(gap <= TWO_PI * 0.05)

    def test_full_arc_marginal_matches_h0(self):
        rng = mod.rng_for(7, 0)
        h1 = np.concatenate([
            mod.gen_flat(200, 50, mod.HardCluster(1.0), True, rng).angles
            for _ in range(50)])
        assert _ecdf_sup_dev(h1, lambda x: x / TWO_PI) < 0.015

    def test_all_planted_von_mises_mean(self):
        s = mod.gen_flat(1000, 1000, mod.VonMises(10.0), True, mod.rng_for(8, 0))
        mean = math.atan2(np.sin(s.angles).mean(), np.cos(s.angles).mean())
        diff = abs(mod.canonical_angle(mean) - s.truth.theta_star)
        assert min(diff, TWO_PI - diff) < 0.1

    def test_param_error(self):
        with pytest.raises(ParameterError):
            mod.gen_flat(5, 6, mod.HardCluster(0.1), True, mod.rng_for(0, 0))

    @pytest.mark.parametrize("N,K,bad", [(200.5, 5, "N=200.5"),
                                         (200, 5.5, "K=5.5"),
                                         (200, math.nan, "K=nan")])
    def test_non_integer_size_rejected(self, N, K, bad):
        name, value = bad.split("=")
        with pytest.raises(ParameterError,
                           match=f"^{name} must be an integer, got {value}$"):
            mod.gen_flat(N, K, mod.HardCluster(0.1), True, mod.rng_for(0, 0))

    def test_integral_sizes_accepted(self):
        want = mod.gen_flat(30, 4, mod.VonMises(2.0), True, mod.rng_for(3, 9))
        for N, K in ((30.0, 4.0), (np.int64(30), np.int32(4))):
            got = mod.gen_flat(N, K, mod.VonMises(2.0), True, mod.rng_for(3, 9))
            assert np.array_equal(got.angles, want.angles)
            assert got.truth == want.truth

    def test_determinism(self):
        a = mod.gen_flat(30, 4, mod.VonMises(2.0), True, mod.rng_for(3, 9))
        b = mod.gen_flat(30, 4, mod.VonMises(2.0), True, mod.rng_for(3, 9))
        assert np.array_equal(a.angles, b.angles)
        assert a.truth == b.truth

    def test_subset_uniformity(self):
        # all C(5,2)=10 subsets should appear with roughly equal frequency
        counts = {}
        for seed in range(4000):
            s = mod.gen_flat(5, 2, mod.HardCluster(0.2), True,
                             mod.rng_for(seed, 2))
            counts[s.truth.subset] = counts.get(s.truth.subset, 0) + 1
        assert len(counts) == 10
        freqs = np.array(list(counts.values())) / 4000
        assert np.all(np.abs(freqs - 0.1) < 0.03)


def scalar_loop_subset(rng, n, k):
    """The former ``_sample_subset``: k scalar draws, swaps on arange(n)."""
    arr = np.arange(n)
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:k].tolist()))


def stream_tail(rng):
    """The next draws: where a generator left the stream, 32- and 64-bit."""
    return int(rng.integers(0, 2 ** 31 - 1)), float(rng.random())


class TestSampleSubset:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1),
           st.integers(min_value=1, max_value=3000), st.data())
    def test_equals_scalar_loop(self, seed, n, data):
        k = data.draw(st.integers(min_value=1, max_value=min(n, 80)))
        old, new = mod.rng_for(seed, 3), mod.rng_for(seed, 3)
        assert mod._sample_subset(new, n, k) == scalar_loop_subset(old, n, k)
        assert stream_tail(new) == stream_tail(old)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_shuffled_prefixes_equal_swaps(self, n, data):
        # Small n: most shuffles pick some position twice.
        k = data.draw(st.integers(min_value=1, max_value=n))
        picks = np.array([[i + data.draw(st.integers(0, n - 1 - i))
                           for i in range(k)] for _ in range(5)])
        for row, got in zip(picks, mod._shuffled_prefixes(picks)):
            moved = {}
            for i, j in enumerate(row.tolist()):
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            assert got.tolist() == sorted(moved[i] for i in range(k))

    @pytest.mark.parametrize("n", [2 ** 31 - 7, 2 ** 31 + 5, 2 ** 32 - 3,
                                   2 ** 32 + 9, 2 ** 40 + 3])
    def test_wide_ranges_draw_as_scalar_calls(self, n):
        # Near 2^31 and 2^32 the bounded draws reject often; 2^40 + 3 needs
        # 64-bit draws. arange(n) is too large here, so the scalar draws are
        # compared directly, and the subset against them.
        for seed in range(60):
            k = 1 + seed % 60
            old, new = mod.rng_for(seed, 4), mod.rng_for(seed, 4)
            draws = [int(old.integers(0, n - i)) for i in range(k)]
            subset = mod._sample_subset(new, n, k)
            assert stream_tail(new) == stream_tail(old)
            moved = {}
            for i, d in enumerate(draws):
                moved[i], moved[i + d] = moved.get(i + d, i + d), moved.get(i, i)
            assert subset == tuple(sorted(moved[i] for i in range(k)))
            assert len(set(subset)) == k and 0 <= subset[0] and subset[-1] < n


class TestStreamDigests:
    """SHA-256 of generated samples, truth and the stream position after
    them, over 6 seeds x 3 shapes; a change in any random stream fails here."""

    SIGNALS = {"hard": mod.HardCluster(0.02), "vm": mod.VonMises(5.0)}
    FLAT = [(2000, 11), (4000, 60), (30, 30)]
    COMM = [(16, 5), (24, 6), (9, 9)]
    H0_FLAT = "0850d92c6eef399bebb94c3cdcc2eea18632c17e65c2dcc954873cfb4635c92a"
    H0_COMM = "39353bb45edf42673b8fd0a32eaf07954555428114eea1c3813b9315710b3e28"

    @pytest.mark.parametrize("kind,signal,h1,want", [
        ("flat", "hard", False, H0_FLAT),
        ("flat", "vm", False, H0_FLAT),
        ("flat", "hard", True,
         "c5ea076cba74c2192388bd5d29f5066bef426745d31d89b31540da1bd9af5c98"),
        ("flat", "vm", True,
         "b4e006147e4996d6ec846b28d4f31eab4e1060c78d73f1c2ea34c5a3958c6290"),
        ("comm", "hard", False, H0_COMM),
        ("comm", "vm", False, H0_COMM),
        ("comm", "hard", True,
         "20995889c06185cfafc200e73d688f97f02cd569f9ad5e36785a8f3a5e7ac8c9"),
        ("comm", "vm", True,
         "263d76e84b7abdba214943f5aaa2abe9ba696a54e0f3e1613a9d23dee4495a18"),
    ])
    def test_digest(self, kind, signal, h1, want):
        assert self.digest(kind, signal, h1) == want

    @pytest.mark.parametrize("kind,signal,want", [
        ("flat", "hard",
         "5f5d9089d177a5caf100c0cb7f4c6bbeab615a8eaf7d324608d8daf06ca6306a"),
        ("flat", "vm",
         "9ecb78c555c49535cdaa5172d74906fe7a1d56c8fcce8a4f3fd3506f36be5de2"),
        ("comm", "hard",
         "6f096fe5d2b4c04fd52763da26d6949b23feb75e7c49da05bb1c6684215278a6"),
        ("comm", "vm",
         "63aeb427214efbcf7ce00776ad8b4cbfbfe6acb928cd01d3896d88e3b2ef5f07"),
    ])
    def test_digest_after_buffered_half(self, kind, signal, want):
        # A generator that enters with a 32-bit half buffered (after one
        # 32-bit bounded draw) hands that half to the subset's first draw.
        assert self.digest(kind, signal, True, buffered=True) == want

    def digest(self, kind, signal, h1, buffered=False):
        h = hashlib.sha256()
        for seed in range(6):
            for shape in self.FLAT if kind == "flat" else self.COMM:
                rng = mod.rng_for(seed, 9, *shape)
                if buffered:
                    rng.integers(0, 7)
                if kind == "flat":
                    s = mod.gen_flat(*shape, self.SIGNALS[signal], h1, rng)
                    angles = s.angles
                    truth = s.truth and (s.truth.subset, s.truth.theta_star)
                else:
                    s = mod.gen_community(*shape, self.SIGNALS[signal], h1, rng)
                    angles = s.edge_angles
                    truth = s.truth and (s.truth.community, s.truth.theta_star)
                h.update(angles.astype("<f8").tobytes())
                h.update(repr(truth).encode())
                h.update(repr(stream_tail(rng)).encode())
        return h.hexdigest()


class TestGenCommunity:
    def test_h1_containment(self):
        for seed in range(200):
            s = mod.gen_community(10, 4, mod.HardCluster(0.07), True,
                                  mod.rng_for(seed, 3))
            c = s.truth.community
            for i_ix in range(4):
                for j_ix in range(i_ix + 1, 4):
                    a = s.angle(c[i_ix], c[j_ix])
                    gap = (a - s.truth.theta_star) % TWO_PI
                    assert gap <= TWO_PI * 0.07

    def test_k2_single_edge(self):
        s = mod.gen_community(6, 2, mod.HardCluster(0.01), True,
                              mod.rng_for(4, 4))
        c = s.truth.community
        assert len(c) == 2
        gap = (s.angle(*c) - s.truth.theta_star) % TWO_PI
        assert gap <= TWO_PI * 0.01

    def test_h0_uniformity_chi2_logged(self):
        rng = mod.rng_for(11, 0)
        draws = np.concatenate([
            mod.gen_community(20, 3, mod.HardCluster(0.5), False, rng).edge_angles
            for _ in range(530)])  # ~1e5 edges
        hist, _ = np.histogram(draws, bins=20, range=(0.0, TWO_PI))
        expected = draws.size / 20
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        from scipy.stats import chi2 as chi2_dist
        pvalue = float(chi2_dist.sf(chi2, df=19))
        print(f"h0 edge-angle uniformity chi2={chi2:.2f} pvalue={pvalue:.4f}")
        assert pvalue > 1e-6  # sanity only; the value is informational

    def test_marginal_equivalence_pooled(self):
        # pooled H1 edges (over random Theta*) match the uniform law
        pooled = []
        for seed in range(400):
            s = mod.gen_community(8, 4, mod.VonMises(5.0), True,
                                  mod.rng_for(seed, 5))
            pooled.append(s.edge_angles)
        pooled = np.concatenate(pooled)
        assert _ecdf_sup_dev(pooled, lambda x: x / TWO_PI) < 0.02

    def test_symmetric_access(self):
        s = mod.gen_community(5, 3, mod.VonMises(1.0), True, mod.rng_for(1, 6))
        assert s.angle(1, 3) == s.angle(3, 1)
        with pytest.raises(ParameterError):
            s.angle(2, 2)

    def test_param_error(self):
        with pytest.raises(ParameterError):
            mod.gen_community(4, 5, mod.VonMises(1.0), True, mod.rng_for(0, 0))

    @pytest.mark.parametrize("n,k,bad", [(9.5, 3, "n=9.5"), (9, 3.5, "k=3.5")])
    def test_non_integer_size_rejected(self, n, k, bad):
        name, value = bad.split("=")
        with pytest.raises(ParameterError,
                           match=f"^{name} must be an integer, got {value}$"):
            mod.gen_community(n, k, mod.VonMises(1.0), True, mod.rng_for(0, 0))

    def test_integral_sizes_accepted(self):
        want = mod.gen_community(9, 3, mod.VonMises(2.0), True, mod.rng_for(3, 9))
        got = mod.gen_community(9.0, np.int64(3), mod.VonMises(2.0), True,
                                mod.rng_for(3, 9))
        assert np.array_equal(got.edge_angles, want.edge_angles)
        assert got.n == 9 and got.truth == want.truth


class TestEdgeIndexing:
    def test_lexicographic(self):
        n = 7
        pairs = mod.edge_pairs(n)
        for idx, (i, j) in enumerate(pairs):
            assert mod.edge_index(n, int(i), int(j)) == idx
            assert mod.edge_index(n, int(j), int(i)) == idx


class TestEdgeSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, TWO_PI, 100.0])
    def test_angle_outside_circle_rejected(self, bad):
        ang = np.full(10, 1.0)
        ang[3] = bad
        with pytest.raises(DomainError, match=r"not in \[0, 2pi\); 1 of 10"):
            mod.EdgeSample(5, ang)

    def test_all_angles_outside_circle_rejected(self):
        # The community scan used to report a window anchored at 100.0.
        with pytest.raises(DomainError, match="10 of 10"):
            mod.EdgeSample(5, np.full(10, 100.0))

    def test_ends_of_circle_accepted(self):
        ang = np.full(10, float(np.nextafter(TWO_PI, 0.0)))
        ang[0] = 0.0
        assert mod.EdgeSample(5, ang).edge_angles[0] == 0.0


class TestFlatSample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5,
                                     TWO_PI, 100.0])
    def test_angle_outside_circle_rejected(self, bad):
        ang = np.full(10, 1.0)
        ang[3] = bad
        with pytest.raises(DomainError, match=r"not in \[0, 2pi\); 1 of 10"):
            mod.FlatSample(ang)

    @pytest.mark.parametrize("angles", [[0.1, 0.2, math.nan, 0.3],
                                        [-1.0, 7.0, 100.0]])
    def test_scan_input_that_miscounted_rejected(self, angles):
        # The flat scan counted 4 of the first and 3 of the second (tau=0.05).
        with pytest.raises(DomainError):
            mod.FlatSample(angles)

    def test_ends_of_circle_accepted(self):
        ang = np.array([0.0, float(np.nextafter(TWO_PI, 0.0))])
        assert mod.FlatSample(ang).n_points == 2


class TestDatasetIO:
    def test_flat_roundtrip_with_truth(self):
        signal = mod.VonMises(3.0)
        s = mod.gen_flat(25, 4, signal, True, mod.rng_for(13, 0))
        buf = io.StringIO()
        mod.write_dataset(buf, s, signal=signal, seed=13, K=4, reveal_truth=True)
        buf.seek(0)
        back, meta = mod.read_dataset(buf)
        assert np.array_equal(back.angles, s.angles)  # 17 sig digits round trip
        assert back.truth == s.truth
        assert meta["model"] == "flat" and int(meta["K"]) == 4
        assert meta["signal"] == "vm:3"

    def test_truth_hidden_by_default(self):
        s = mod.gen_flat(10, 2, mod.HardCluster(0.2), True, mod.rng_for(14, 0))
        buf = io.StringIO()
        mod.write_dataset(buf, s, signal=mod.HardCluster(0.2), K=2)
        text = buf.getvalue()
        assert "truth" not in text
        buf.seek(0)
        back, _ = mod.read_dataset(buf)
        assert back.truth is None

    def test_community_roundtrip(self):
        signal = mod.HardCluster(0.15)
        s = mod.gen_community(9, 3, signal, True, mod.rng_for(15, 0))
        buf = io.StringIO()
        mod.write_dataset(buf, s, signal=signal, seed=15, k=3, reveal_truth=True)
        text = buf.getvalue()
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(body) == 36
        assert body[0].startswith("0,1,")
        assert body[-1].startswith("7,8,")
        back, meta = mod.read_dataset(io.StringIO(text))
        assert np.array_equal(back.edge_angles, s.edge_angles)
        assert back.truth == s.truth

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5",
                                     "6.2831853071795862", "7"])
    def test_flat_angle_outside_circle_rejected(self, bad):
        text = f"# model=flat\n# N=3\n0.5\n{bad}\n1\n"
        with pytest.raises(DomainError):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1e-9",
                                     "6.2831853071795862"])
    def test_edge_angle_outside_circle_rejected(self, bad):
        text = f"# model=community\n# n=3\n0,1,0.5\n0,2,{bad}\n1,2,1\n"
        with pytest.raises(DomainError):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "# model=flat\n# K=x\n0.5\n1\n",
        "# model=flat\n0.5\nabc\n",
        "# model=flat\n# truth_subset=0,x\n# truth_theta=0.5\n0.5\n1\n",
        "# model=flat\n# truth_subset=0\n# truth_theta=abc\n0.5\n1\n",
        "# model=flat\n# truth_subset=0\n0.5\n1\n",
        "# model=community\n# n=x\n0,1,0.5\n0,2,1\n1,2,2\n",
        "# model=community\n0,1,0.5\n0,2,1\n1,2,2\n",
        "# model=community\n# n=3\n# k=2.5\n0,1,0.5\n0,2,1\n1,2,2\n",
        "# model=community\n# n=3\n0,1,0.5\n0,x,1\n1,2,2\n",
        "# model=community\n# n=3\n0,1,0.5\n0,2,abc\n1,2,2\n",
        "# model=community\n# n=3\n0,1,0.5\n0,2\n1,2,2\n",
        "# model=community\n# n=3\n0,1,0.5,1\n0,2,1\n1,2,2\n",
        "# model=community\n# n=3\n# truth_subset=0,1.5\n# truth_theta=0\n"
        "0,1,0.5\n0,2,1\n1,2,2\n",
    ], ids=["flat-K", "flat-body", "flat-truth-subset", "flat-truth-theta",
            "flat-truth-theta-missing", "comm-n", "comm-n-missing", "comm-k",
            "comm-vertex", "comm-angle", "comm-two-fields", "comm-four-fields",
            "comm-truth-subset"])
    def test_malformed_number_rejected(self, text):
        with pytest.raises(ParameterError):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("text,error", [
        ("# model=flat\n# truth_subset=-1\n# truth_theta=0.5\n0.5\n1\n",
         ParameterError),
        ("# model=flat\n# truth_subset=1\n# truth_theta=nan\n0.5\n1\n",
         DomainError),
        ("# model=flat\n# truth_subset=1\n# truth_theta=inf\n0.5\n1\n",
         DomainError),
        ("# model=community\n# n=3\n# truth_subset=-2,1\n# truth_theta=0\n"
         "0,1,0.5\n0,2,1\n1,2,2\n", ParameterError),
        ("# model=community\n# n=3\n# truth_subset=0,1\n# truth_theta=-inf\n"
         "0,1,0.5\n0,2,1\n1,2,2\n", DomainError),
    ], ids=["flat-negative-index", "flat-nan-theta", "flat-inf-theta",
            "comm-negative-vertex", "comm-inf-theta"])
    def test_bad_truth_rejected(self, text, error):
        with pytest.raises(error):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("header", ["2", "4", "abc"])
    def test_flat_count_header_mismatch_rejected(self, header):
        text = f"# model=flat\n# N={header}\n0.5\n1\n2\n"
        with pytest.raises(ParameterError):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("header", ["03", "+3"])
    def test_flat_count_header_read_as_integer(self, header):
        text = f"# model=flat\n# N={header}\n0.5\n1\n2\n"
        sample, _ = mod.read_dataset(io.StringIO(text))
        assert sample.n_points == 3

    @pytest.mark.parametrize("header", ["abc", "3.0"])
    def test_flat_count_header_not_an_integer(self, header):
        text = f"# model=flat\n# N={header}\n0.5\n1\n2\n"
        with pytest.raises(ParameterError,
                           match="header N must be an integer"):
            mod.read_dataset(io.StringIO(text))

    def test_edge_listed_twice_rejected(self):
        # Six lines for n = 4: {0, 1} twice, as 0,1 and 1,0, and {2, 3} absent.
        text = ("# model=community\n# n=4\n0,1,0.5\n0,2,0.5\n0,3,0.5\n"
                "1,2,0.5\n1,3,0.5\n1,0,0.7\n")
        with pytest.raises(ParameterError, match="listed twice"):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("text,match", [
        ("# model=flat\n# N=2\n0.5\n0,1,0.5\n1\n", "edge line 0,1"),
        ("# model=community\n# n=3\n0,1,0.5\n0.7\n0,2,1\n1,2,2\n",
         "bare angle line 0.7"),
        ("# model=community\n# n=3\n0,1,0.1\n0,2,1\n1,2,2\n0,1,2.5\n",
         "edge 0,1 is listed twice"),
    ], ids=["flat-edge-line", "comm-bare-angle", "comm-same-edge-twice"])
    def test_body_line_never_dropped_or_overwritten(self, text, match):
        with pytest.raises(ParameterError, match=match):
            mod.read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("text,key", [
        ("# model=flat\n# K=2\n# K=5\n0.5\n1\n", "K"),
        ("# model=community\n# n=3\n# truth_subset=0,1,2\n# truth_theta=0.5\n"
         "# truth_theta=1.5\n0,1,0.1\n0,2,1\n1,2,2\n", "truth_theta"),
        ("# model=flat\n# model=community\n0.5\n", "model"),
    ], ids=["flat-K", "comm-truth-theta", "model"])
    def test_header_given_twice_rejected(self, text, key):
        # The later value used to replace the earlier one without a word.
        with pytest.raises(ParameterError, match=f"header '{key}' is given twice"):
            mod.read_dataset(io.StringIO(text))

    def test_comment_without_value_may_repeat(self):
        text = "# model=flat\n# note\n# note\n# N=2\n0.5\n1\n"
        sample, meta = mod.read_dataset(io.StringIO(text))
        assert sample.n_points == 2 and meta["note"] == ""

    @pytest.mark.parametrize("n,match", [
        ("100000000000", "expected 4999999999950000000000 edges"),
        ("10000000", "expected 49999995000000 edges"),
        ("-3", "n >= 2"), ("1", "n >= 2"), ("0", "n >= 2"),
    ], ids=["beyond-numpy", "beyond-memory", "negative", "one", "zero"])
    def test_edge_count_header_checked_before_use(self, n, match):
        # These raised a bare ValueError, a MemoryError (364 TiB asked for),
        # and "expected 6 edges for n=-3".
        text = f"# model=community\n# n={n}\n0,1,0.5\n0,2,1\n1,2,2\n"
        with pytest.raises(ParameterError, match=match):
            mod.read_dataset(io.StringIO(text))


def _read_by_line(fh):
    """``read_dataset`` reading every line on its own and checking every
    edge with ``edge_index``, as it did before it took blocks in bulk."""
    def positions(n, pairs):
        return np.array([mod.edge_index(n, i, j) for i, j in pairs])

    with mock.patch.object(mod, "_take_block", return_value=False), \
            mock.patch.object(mod, "_edge_positions", positions):
        return mod.read_dataset(fh)


def _outcome(read, text: str, newline=None):
    """The sample's kind, bits, truth and meta that ``read`` gives for
    ``text``, or its exception's type and message."""
    try:
        sample, meta = read(io.StringIO(text, newline=newline))
    except Exception as exc:
        return type(exc), str(exc)
    angles = sample.angles if isinstance(sample, mod.FlatSample) \
        else sample.edge_angles
    return type(sample), angles.tobytes(), sample.truth, meta


# Lines a dataset file might hold by mistake or in an unusual form; {n} is
# the file's N or n.
_ODD_LINES = [
    "", "  \t", "# note", "# N=3", "# n=3", "# k=2", "# model=flat",
    "# model=community", "# truth_subset=0,1", "# truth_theta=0.5", "1_0",
    "+3", " nan", "inf", "0.5", "abc", "0,1", "0,1,0.5,1", "0,1,0.5",
    "1,0,0.5", "1,1,0.5", "0,{n},0.5", "{n},1,0.5", "-1,1,0.5", "0,99,0.5",
    f"{2 ** 70},1,0.5",
    f"0,{-2 ** 64},0.5", "0,1,1_0", "0,1, nan", " 0 , 1 , +2 ", "1_0,2,1",
]


@st.composite
def _dataset_texts(draw):
    """A valid dataset file in an unusual but legal form, with a few lines
    from ``_ODD_LINES`` put in or over its lines, or one deleted, and its
    line endings."""
    flat = draw(st.booleans())
    size = draw(st.integers(1, 40) if flat else st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    fmt = draw(st.sampled_from(["%.17g", "%r", "%.3f", "+%.5e", " %.4g "]))
    if flat:
        head = ["# model=flat", f"# N={size}"]
        body = [fmt % a for a in (rng.random(size) * TWO_PI).tolist()]
    else:
        head = ["# model=community", f"# n={size}"]
        pairs = mod.edge_pairs(size)[rng.permutation(size * (size - 1) // 2)
                                     if draw(st.booleans()) else slice(None)]
        body = [f"{j},{i}," if rng.random() < draw(st.sampled_from([0, .3]))
                else f"{i},{j}," for i, j in pairs]
        body = [b + fmt % a
                for b, a in zip(body, (rng.random(len(body)) * TWO_PI).tolist())]
    lines = head + body if draw(st.booleans()) else body + head
    for over, at, line in draw(st.lists(st.tuples(
            st.booleans(), st.integers(0, 10 ** 6), st.sampled_from(_ODD_LINES)),
            max_size=3)):
        lines[at % len(lines):at % len(lines) + over] = [
            line.replace("{n}", str(size))]
    if draw(st.integers(0, 2)) == 0 and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    text = "".join(line + (ends or rng.choice(["\n", "\r\n", "\r"]))
                   for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.integers(0, 4)) == 0 else "") + text


class TestReadDatasetBlocks:
    """``read_dataset`` takes whole blocks of bare numbers or ``i,j,angle``
    lines in bulk, and checks edges as arrays. It must give what reading each
    line on its own and checking each edge with ``edge_index`` gives: the
    same sample bits and meta, or the same exception type and message."""

    @settings(max_examples=400, deadline=None)
    @given(_dataset_texts(), st.sampled_from([None, "", "\n"]),
           st.integers(1, 300))
    def test_blocks_read_as_lines_are(self, text, newline, block_chars):
        with mock.patch.object(mod, "_BLOCK_CHARS", block_chars):
            got = _outcome(mod.read_dataset, text, newline)
        assert got == _outcome(_read_by_line, text, newline)

    @pytest.mark.parametrize("edge", ["0,4", "4,0", "1,1", "-1,2", "2,-1",
                                      f"{2 ** 70},1", f"1,{-2 ** 64}", "1,0",
                                      "3,2"])
    @pytest.mark.parametrize("row", [0, 5])
    @pytest.mark.parametrize("loop", [False, True])
    def test_edges_checked_as_edge_index_checks_them(self, edge, row, loop):
        # n = 4 with six edge lines: ``edge`` on line ``row``, and with
        # ``loop`` a self-loop on line 4, so the first bad edge in file order
        # must be named.
        lines = [f"{i},{j},0.5" for i, j in mod.edge_pairs(4)]
        if loop:
            lines[4] = "2,2,0.5"
        lines[row] = edge + ",0.5"
        text = "# model=community\n# n=4\n" + "\n".join(lines) + "\n"
        assert _outcome(mod.read_dataset, text) == \
            _outcome(_read_by_line, text)

    @pytest.mark.parametrize("bad", ["abc", "0,1", "0,1,0.5", "2,1,0.5",
                                     "1,1,0.5", "# K=3", "", "7", "0.5"])
    @pytest.mark.parametrize("flat", [True, False])
    def test_line_in_second_block(self, flat, bad):
        # Over three blocks of 1 << 16 characters; ``bad`` opens the second.
        rng = np.random.default_rng(11)
        if flat:
            lines = ["# model=flat", "# N=12000"] + [
                "%.17g" % a for a in rng.random(12000) * TWO_PI]
        else:
            lines = ["# model=community", "# n=130"] + [
                f"{i},{j},%.17g" % a for (i, j), a in
                zip(mod.edge_pairs(130), rng.random(8385) * TWO_PI)]
        text = "\n".join(lines) + "\n"
        at = text.index("\n", 1 << 16) + 1
        text = text[:at] + bad + "\n" + text[at:]
        assert len(text) > 3 << 16
        assert _outcome(mod.read_dataset, text) == \
            _outcome(_read_by_line, text)

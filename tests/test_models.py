"""Generator distribution checks, determinism, and dataset file format."""

import io
import math
import subprocess
import sys

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

    @pytest.mark.parametrize("kappa", [2e10, 1e17, 1e200])
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


class TestEdgeIndexing:
    def test_lexicographic(self):
        n = 7
        pairs = mod.edge_pairs(n)
        for idx, (i, j) in enumerate(pairs):
            assert mod.edge_index(n, int(i), int(j)) == idx
            assert mod.edge_index(n, int(j), int(i)) == idx


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
        assert mod.parse_signal_tag(meta["signal"]) == signal

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

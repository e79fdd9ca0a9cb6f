"""Sampler tests: every full conditional against an enumeration or
quadrature oracle, chain invariants, determinism, checkpointing."""

import copy
import re
import tempfile
import tracemalloc
import warnings
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.special import gammaln, logsumexp

from diffmix import gibbs, measure, mixture, store, wf
from diffmix.archive import read_container, write_container
from diffmix.data import TimeGridDataset
from diffmix.errors import (DataError, NumericalError, SeriesTruncationError,
                            TruncationCapError)
from diffmix.gibbs import (GammaPrior, SamplerConfig, check_invariants,
                           gibbs_sweep, init_chain, run_chain,
                           stick_conditional_shapes, update_hyperparams,
                           update_label_swaps, update_locations,
                           update_membership, update_slice_and_truncation,
                           update_stick_values, update_transition_latents)
from diffmix.measure import StickConfig, sticks_to_weights_matrix
from diffmix.mixture import CenteringMeasure, gaussian_logpdf, simulate_toy
from diffmix.store import (PosteriorDraws, load_checkpoint, save_checkpoint,
                           slice_bounds)

from oracles import (centering_logpdf, centering_posterior,
                     guarded_label_swaps, per_gap_init_chain,
                     per_gap_prior_components, reference_categorical_rows,
                     reference_membership, reference_stick_likelihood,
                     stick_joint_tv, transition_mixture_component,
                     two_block_hyperparams)


def dp_config(**kw):
    base = dict(stick=StickConfig.dp(1.0), centering=CenteringMeasure(),
                iters=20, burn_in=10, thin=1, seed=0)
    base.update(kw)
    return SamplerConfig(**base)


def stored_members(draws):
    """The members of draws' archive: times, m, theta, c and each
    draw's own component rows stacked."""
    ms = draws.m.tolist()
    return {"times": draws.times, "m": draws.m.copy(),
            "theta": draws.theta.copy(), "c": draws.c.copy(),
            **{name: np.concatenate([getattr(draws, name)[i, :k]
                                     for i, k in enumerate(ms)])
               for name in ("sticks", "atom_mean", "atom_prec")}}


def small_data(rng, n_times=6, per_time=2, t_max=2.0):
    return simulate_toy(n_times, per_time, t_max, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestConfigValidation:
    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            dp_config(slice_eta=0.0)
        with pytest.raises(ValueError):
            dp_config(trans_slice_eta=1.0)

    def test_thin_and_iters(self):
        with pytest.raises(ValueError):
            dp_config(thin=0)
        with pytest.raises(ValueError):
            dp_config(iters=0)

    def test_iters_below_thin_keeps_no_draw(self):
        with pytest.raises(ValueError, match="keeps no draw"):
            dp_config(iters=3, thin=5)
        dp_config(iters=5, thin=5)

    def test_tie_conflicts_with_fix(self):
        with pytest.raises(ValueError):
            dp_config(tie_c_to_theta=True, fix_c=1.0)

    def test_gem_requires_placeholder_theta(self):
        stick = StickConfig.general_gem([(1.0, 2.0)], c=1.0)
        with pytest.raises(ValueError):
            dp_config(stick=stick)

    def test_gem_refuses_tie_c_to_theta(self):
        # the placeholder theta is ignored, so it must not set c either
        stick = StickConfig.general_gem([(1.0, 2.0)], c=1.0)
        with pytest.raises(ValueError, match="no theta to sample or tie c"):
            dp_config(stick=stick, fix_theta=8.0, tie_c_to_theta=True)
        dp_config(stick=stick, fix_theta=8.0)
        dp_config(stick=stick, fix_theta=1.0)

    def test_digest_stable(self):
        assert dp_config().digest() == dp_config().digest()
        assert dp_config().digest() != dp_config(seed=1).digest()


class TestInit:
    def test_invariants_hold(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        # constructive invariants; the truncation sync applies after the
        # first slice update, so check the component pieces here
        eta = cfg.slice_eta
        assert np.all(state.u < np.exp(-eta * (state.s + 1.0)))
        assert np.all(state.s + 1 <= slice_bounds(state.u, eta))
        assert np.all(state.trans_k <= state.trans_d)
        assert np.all(state.trans_o < np.exp(-cfg.trans_slice_eta
                                             * state.trans_d))
        assert state.m >= 10

    def test_fixed_hyperparameters(self, rng):
        data = small_data(rng)
        state = init_chain(data, dp_config(fix_theta=2.5, fix_c=0.75), rng)
        assert state.theta == 2.5
        assert state.c == 0.75

    def test_tie_sets_c(self, rng):
        data = small_data(rng)
        state = init_chain(data, dp_config(tie_c_to_theta=True), rng)
        assert state.c == pytest.approx(state.theta / 2.0)

    def test_seeded_determinism(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        s1 = init_chain(data, cfg, np.random.default_rng(9))
        s2 = init_chain(data, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(s1.sticks, s2.sticks)
        np.testing.assert_array_equal(s1.s, s2.s)
        np.testing.assert_array_equal(s1.trans_d, s2.trans_d)


class TestSliceAndTruncation:
    def test_label_function_inverse(self):
        eta = 0.5
        u = np.exp(-eta * 3.7)
        assert int(np.floor(-np.log(u) / eta)) == 3

    def test_bounds_dominate_memberships(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        for _ in range(20):
            update_slice_and_truncation(state, data, cfg, rng)
            assert np.all(state.s + 1 <= slice_bounds(state.u, cfg.slice_eta))
            assert state.m == slice_bounds(state.u, cfg.slice_eta).max()

    def test_bound_increases_with_label(self, rng):
        # E[floor(psi_inv(u)) | s] = s + E[floor-ish of Exp(1)/eta]
        eta = 0.5
        for s_label in (1, 4):
            u = rng.uniform(0, np.exp(-eta * s_label), size=20_000)
            bounds = np.floor(-np.log(u) / eta)
            assert bounds.mean() > s_label + 1.0
        low = np.floor(-np.log(rng.uniform(0, np.exp(-eta), size=20_000)))
        high = np.floor(-np.log(rng.uniform(0, np.exp(-eta * 5), size=20_000)))
        assert high.mean() / eta > low.mean() / eta

    def test_growth_extends_components(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        state.s = np.full_like(state.s, state.m - 1)
        psi = np.exp(-cfg.slice_eta * (state.s + 1.0))
        state.u = psi * 1e-4  # forces large bounds
        m_before = state.m
        bounds = slice_bounds(state.u, cfg.slice_eta)
        assert bounds.max() > m_before
        update_slice_and_truncation(state, data, cfg, rng)
        assert state.m == slice_bounds(state.u, cfg.slice_eta).max()
        assert state.sticks.shape[0] == state.m

    def test_cap_error(self, rng):
        data = small_data(rng)
        cfg = dp_config(m_cap=12)
        state = init_chain(data, cfg, rng)
        state.s = np.full_like(state.s, 11)
        with pytest.raises(TruncationCapError, match="--m-cap"):
            for _ in range(200):
                update_slice_and_truncation(state, data, cfg, rng)
                state.u *= 1e-3  # push the bounds upward

    def test_cap_message_same_at_init_and_later_sweep(self, rng):
        data = small_data(rng)
        with pytest.raises(TruncationCapError) as at_init:
            init_chain(data, dp_config(m_cap=9), rng)  # init floors m at 10
        state = init_chain(data, dp_config(), rng)
        cfg = dp_config(m_cap=state.m)
        state.s[:] = state.m  # label m + 1: every slice bound passes the cap
        state.sweep = 7
        with pytest.raises(TruncationCapError) as later:
            update_slice_and_truncation(state, data, cfg, rng)
        for err, cap, sweep in ((at_init, 9, 0), (later, cfg.m_cap, 7)):
            assert re.fullmatch(
                rf"truncation level \d+ exceeds cap {cap} at sweep {sweep}; "
                r"raise --m-cap \(m_cap\) or --eta \(slice_eta\)",
                str(err.value))

    @pytest.mark.parametrize("times", [[0.0, 0.3, 0.6, 1.7, 2.0, 2.3, 2.6],
                                       [0.0]], ids=["gaps", "one_time"])
    @pytest.mark.parametrize("count", [1, 2, 7, 20])
    @pytest.mark.parametrize("stick", [
        StickConfig.dp(1.0), StickConfig.pitman_yor(1.0, 0.25),
        StickConfig.general_gem([(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)]),
    ], ids=["dp", "py", "gem_three_pairs"])
    def test_growth_matches_per_gap_reference(self, stick, count, times):
        # scalar per-stick draws give the arrays and generator state of
        # one array call per gap, bit for bit; from offset 1 the three
        # pairs make a one-stick run and a run holding the rest
        data = TimeGridDataset(times=times,
                               values=tuple(np.array([0.0]) for _ in times))
        cfg = dp_config(stick=stick, **({"fix_theta": 1.0}
                                        if stick.kind == "gem" else {}))
        outs, states = [], []
        for draw in (gibbs._prior_components, per_gap_prior_components):
            gen = np.random.default_rng(17)
            outs.append(draw(cfg, 1.3, 0.7, count, 1, data.gaps, gen))
            states.append(gen.bit_generator.state)
        for new, ref in zip(*outs):
            assert new.dtype == ref.dtype
            np.testing.assert_array_equal(new, ref)
        assert states[0] == states[1]

    @pytest.mark.parametrize("stick", [
        StickConfig.dp(1.0), StickConfig.pitman_yor(1.0, 0.25),
    ], ids=["dp", "py"])
    def test_growth_over_more_gaps_than_the_store_holds(self, stick,
                                                        monkeypatch):
        # 300 distinct gaps, more than the series store keeps: the tables
        # come a store's worth of gaps at a time, the draws are the per-gap
        # reference's, and the store stays within its size
        monkeypatch.setattr(wf, "_nb_store", {})
        times = np.cumsum(np.random.default_rng(4).uniform(0.05, 0.5, 301))
        data = TimeGridDataset(times=times,
                               values=tuple(np.array([0.0]) for _ in times))
        cfg = dp_config(stick=stick)
        outs, states = [], []
        for draw in (gibbs._prior_components, per_gap_prior_components):
            gen = np.random.default_rng(5)
            outs.append(draw(cfg, 1.3, 0.7, 3, 1, data.gaps, gen))
            states.append(gen.bit_generator.state)
            assert len(wf._nb_store) <= wf._NB_STORE_SIZE
        for new, ref in zip(*outs):
            np.testing.assert_array_equal(new, ref)
        assert states[0] == states[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("times, kw", [
        (np.linspace(0.0, 3.0, 12), {}),
        (np.linspace(0.0, 3.0, 12), {"fixed_truncation": 6, "stick":
                                     StickConfig.pitman_yor(1.0, 0.3)}),
        ([0.0], {"fix_theta": 1.0, "stick": StickConfig.general_gem(
            [(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)])}),
        ([0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 3.5], {"tie_c_to_theta": True}),
        (np.linspace(0.0, 3.0, 12), {"fixed_truncation": 1}),
    ], ids=["dp", "py_fixed_6", "gem_one_time", "tied_repeated_gaps",
            "fixed_1"])
    def test_init_matches_per_gap_reference(self, times, kw, seed):
        # init through _prior_components gives the state and generator
        # state of its own per-gap loop with array calls, bit for bit
        gen = np.random.default_rng(seed + 50)
        values = tuple(gen.normal(size=3) for _ in times)
        data = TimeGridDataset(times=times, values=values)
        cfg = dp_config(**kw)
        states, gens = [], []
        for init in (init_chain, per_gap_init_chain):
            gen = np.random.default_rng(seed)
            states.append(init(data, cfg, gen))
            gens.append(gen.bit_generator.state)
        for f in fields(states[0]):
            new, ref = (getattr(st, f.name) for st in states)
            if isinstance(ref, np.ndarray):
                assert new.dtype == ref.dtype, f.name
                np.testing.assert_array_equal(new, ref, err_msg=f.name)
            else:
                assert new == ref, f.name
        assert gens[0] == gens[1]

    def test_init_over_near_duplicate_times_same_message(self):
        near = TimeGridDataset([0.0, 1e-9, 1.0],
                               tuple(np.array([0.1 * i]) for i in range(3)))
        messages = []
        for init in (init_chain, per_gap_init_chain):
            with pytest.raises(SeriesTruncationError) as err:
                init(near, dp_config(), np.random.default_rng(3))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert re.search(r"gap 1e-09 .*merge near-duplicate times",
                         messages[0])

    def test_growth_over_near_duplicate_times_names_the_gap(self, rng):
        values = tuple(np.array([0.1 * i]) for i in range(3))
        cfg = dp_config()
        state = init_chain(TimeGridDataset([0.0, 0.5, 1.0], values), cfg, rng)
        state.s[:] = state.m + 2  # every bound lands above m: growth
        near = TimeGridDataset([0.0, 1e-9, 1.0], values)
        with pytest.raises(SeriesTruncationError,
                           match=r"gap 1e-09 .*merge near-duplicate times"):
            update_slice_and_truncation(state, near, cfg, rng)


class TestMembership:
    def _fixed_state(self, rng, data, cfg, m=4):
        state = init_chain(data, cfg, rng)
        if state.m > m:
            state.sticks = state.sticks[:m]
            state.trans_o = state.trans_o[:m]
            state.trans_k = state.trans_k[:m]
            state.trans_d = state.trans_d[:m]
            state.atoms = state.atoms[:m]
            state.m = m
            state.s = rng.integers(0, m, size=len(state.s))
            psi = np.exp(-cfg.slice_eta * (state.s + 1.0))
            state.u = rng.uniform(0, psi)
        return state

    def test_single_candidate_is_kept(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = self._fixed_state(rng, data, cfg)
        state.s = np.zeros_like(state.s)
        # u just below psi(1): only label 1 is admissible
        state.u = np.exp(-cfg.slice_eta) * (1 - 1e-12) * np.ones_like(state.u)
        update_membership(state, data, cfg, rng)
        assert np.all(state.s == 0)

    def test_frequencies_match_exact_conditional(self, rng):
        data = TimeGridDataset(times=[0.0], values=(np.array([0.6]),))
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        m = 3
        state.sticks = np.array([[0.4], [0.5], [0.6]])
        state.atoms = np.array([[0.0, 4.0], [1.0, 4.0], [-0.5, 1.0]])
        state.trans_o = np.zeros((m, 0))
        state.trans_k = np.zeros((m, 0), dtype=np.int64)
        state.trans_d = np.zeros((m, 0), dtype=np.int64)
        state.m = m
        state.s = np.array([0])
        eta = cfg.slice_eta
        # u admits exactly the three candidates
        state.u = np.array([np.exp(-eta * 3.5)])
        w = sticks_to_weights_matrix(state.sticks)[:, 0]
        log_mass = np.log(w) + eta * np.arange(1, m + 1) \
            + gaussian_logpdf(0.6, state.atoms[:, 0], state.atoms[:, 1])
        probs = np.exp(log_mass - logsumexp(log_mass))
        counts = np.zeros(m)
        reps = 40_000
        for _ in range(reps):
            state.s = np.array([0])
            update_membership(state, data, cfg, rng)
            counts[state.s[0]] += 1
        freq = counts / reps
        for j in range(m):
            se = np.sqrt(probs[j] * (1 - probs[j]) / reps)
            assert abs(freq[j] - probs[j]) < 4 * se

    def test_zero_kernel_candidate_never_chosen(self, rng):
        data = TimeGridDataset(times=[0.0], values=(np.array([0.0]),))
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        state.m = 2
        state.sticks = np.array([[0.5], [0.5]])
        # second atom essentially cannot produce y = 0
        state.atoms = np.array([[0.0, 1.0], [1e6, 1e6]])
        state.trans_o = np.zeros((2, 0))
        state.trans_k = np.zeros((2, 0), dtype=np.int64)
        state.trans_d = np.zeros((2, 0), dtype=np.int64)
        state.s = np.array([1])
        state.u = np.array([np.exp(-cfg.slice_eta * 2.5)])
        update_membership(state, data, cfg, rng)
        assert state.s[0] == 0

    def test_row_without_mass_raises(self, rng, monkeypatch):
        # label 1 always has a finite weight, so a row without mass has
        # every candidate kernel underflowed and a fresh u cannot mend it:
        # the update names the observation and leaves u and s as they were
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        real, calls = gibbs._categorical, []

        def first_row_two_lost(log_mass, width, u):
            idx = real(log_mass, width, u)
            if not calls:
                idx[2] = -1
            calls.append(len(idx))
            return idx

        monkeypatch.setattr(gibbs, "_categorical", first_row_two_lost)
        u, s = state.u.copy(), state.s.copy()
        with pytest.raises(NumericalError, match="for observation 2 "):
            update_membership(state, data, cfg, rng)
        assert calls == [data.n_obs]
        np.testing.assert_array_equal(state.u, u)
        np.testing.assert_array_equal(state.s, s)

    @pytest.mark.parametrize("n_times, per_time", [(6, 2), (70, 5)],
                             ids=["cumsum", "row_adds"])
    @pytest.mark.parametrize("stick", [StickConfig.dp(1.0),
                                       StickConfig.pitman_yor(1.0, 0.3)],
                             ids=["dp", "py"])
    def test_matches_row_layout_reference(self, n_times, per_time, stick):
        # the (labels x observations) draw equals the (observations x
        # labels) one of the reference kernel: memberships and generator,
        # with observations on both sides of the row-add switch
        data = simulate_toy(n_times, per_time, 2.0, np.random.default_rng(4))
        assert (data.n_obs >= gibbs._ROW_ADD_COLUMNS) == (n_times == 70)
        cfg = dp_config(stick=stick, fix_theta=1.0)
        rng = np.random.default_rng(6)
        state = init_chain(data, cfg, rng)
        for _ in range(8):
            gibbs_sweep(state, data, cfg, rng)
            ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
            update_membership(state, data, cfg, rng)
            reference_membership(ref, data, cfg, ref_rng)
            np.testing.assert_array_equal(state.s, ref.s)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCategorical:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.one_of(st.integers(1, 12),
                          st.integers(gibbs._ROW_ADD_COLUMNS - 3,
                                      gibbs._ROW_ADD_COLUMNS + 60)),
           support=st.one_of(st.integers(1, 6), st.integers(40, 300)),
           scale=st.sampled_from([1.0, 30.0, 800.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_row_reference(self, rows, support, scale, seed):
        # tall-narrow and short-wide draws on both sides of the row-add
        # switch pick what the row-layout reference picks, -1 included:
        # rows of zero mass, empty supports, masses that underflow past a
        # row's start, and uniforms at and next to 0 and 1
        gen = np.random.default_rng(seed)
        log_mass = gen.normal(scale=scale, size=(rows, support))
        width = gen.integers(0, support + 1, size=rows)
        log_mass[gen.uniform(size=rows) < 0.1] = -np.inf
        u = gen.uniform(size=rows)
        u[gen.uniform(size=rows) < 0.2] = gen.choice(
            [0.0, 5e-324, 1e-17, np.nextafter(1.0, 0.0), 1.0 - 1e-12])
        want = reference_categorical_rows(
            log_mass, np.arange(support) < width[:, None], u)
        got = gibbs._categorical(log_mass.T.copy(), width, u)
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def _edge_columns(gen, log_mass, u):
        """Columns holding a NaN, a +inf or no mass, and uniforms at 0."""
        rows, support = log_mass.shape
        hit = gen.uniform(size=rows)
        at = gen.integers(0, support, size=rows)
        nan, inf = hit < 0.05, (hit >= 0.05) & (hit < 0.1)
        log_mass[nan, at[nan]] = np.nan
        log_mass[inf, at[inf]] = np.inf
        log_mass[(hit >= 0.1) & (hit < 0.15)] = -np.inf
        u[gen.uniform(size=rows) < 0.1] = 0.0

    @settings(max_examples=60, deadline=None)
    @given(rows=st.one_of(st.integers(1, 12),
                          st.integers(gibbs._ROW_ADD_COLUMNS,
                                      gibbs._ROW_ADD_COLUMNS + 60)),
           support=st.one_of(st.integers(1, 6), st.integers(40, 120)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_unmasked_padding_matches_row_reference(self, rows, support, seed):
        # width None takes masses already -inf past each column's support,
        # as the k draw gives them: the picks of the masked reference, with
        # NaN, +inf and no-mass columns and u = 0, in both sum forms
        gen = np.random.default_rng(seed)
        log_mass = gen.normal(scale=30.0, size=(rows, support))
        width = gen.integers(1, support + 1, size=rows)
        valid = np.arange(support) < width[:, None]
        u = gen.uniform(size=rows)
        self._edge_columns(gen, log_mass, u)
        log_mass[~valid] = -np.inf
        with np.errstate(invalid="ignore"):
            want = reference_categorical_rows(log_mass, valid, u)
            got = gibbs._categorical(log_mass.T.copy(), None, u)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(gibbs._ROW_ADD_COLUMNS,
                            3 * gibbs._ROW_ADD_COLUMNS),
           support=st.one_of(st.integers(1, 6), st.integers(7, 60)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_count_form_matches_row_reference(self, rows, support, seed):
        # from _ROW_ADD_COLUMNS columns up the pick counts the partial sums
        # below the target: the argmax pick of the reference, NaN and +inf
        # columns, u = 0 and columns without mass included
        gen = np.random.default_rng(seed)
        log_mass = gen.normal(scale=30.0, size=(rows, support))
        width = gen.integers(0, support + 1, size=rows)
        u = gen.uniform(size=rows)
        self._edge_columns(gen, log_mass, u)
        with np.errstate(invalid="ignore"):
            want = reference_categorical_rows(
                log_mass, np.arange(support) < width[:, None], u)
            got = gibbs._categorical(log_mass.T.copy(), width, u)
        np.testing.assert_array_equal(got, want)


class TestLocations:
    def test_empty_cluster_draws_from_prior(self, rng):
        data = TimeGridDataset(times=[0.0], values=(np.array([5.0]),))
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        state.s = np.zeros(1, dtype=np.int64)
        means = []
        precs = []
        for _ in range(4000):
            update_locations(state, data, cfg, rng)
            means.append(state.atoms[-1, 0])  # last cluster has no members
            precs.append(state.atoms[-1, 1])
        cm = cfg.centering
        prec = np.array(precs)
        assert prec.mean() == pytest.approx(cm.shape / cm.rate, rel=0.05)
        spread = np.std(means)
        assert spread == pytest.approx(
            np.sqrt(cm.rate / (cm.precision_scale * (cm.shape - 1))), rel=0.1)

    def test_flat_prior_limit_centres_on_data(self, rng):
        y = 3.7
        data = TimeGridDataset(times=[0.0], values=(np.array([y]),))
        cfg = dp_config(centering=CenteringMeasure(precision_scale=1e-12))
        state = init_chain(data, cfg, rng)
        state.s = np.zeros(1, dtype=np.int64)
        draws = []
        for _ in range(4000):
            update_locations(state, data, cfg, rng)
            draws.append(state.atoms[0, 0])
        assert np.mean(draws) == pytest.approx(y, abs=0.05)

    def test_posterior_matches_quadrature(self, rng):
        # three observations in one cluster: conjugate joint density equals
        # the normalised product of prior and kernel terms on a grid
        ys = np.array([1.0, 1.4, 0.7])
        cm = CenteringMeasure(mean0=0.0, precision_scale=1e-3, shape=10.0,
                              rate=1.0)
        post = centering_posterior(cm, ys)
        test_points = [(1.0, 9.0), (1.2, 11.0), (0.9, 8.0), (1.05, 10.5),
                       (1.3, 12.0)]

        def unnorm_log(mean, prec):
            return centering_logpdf(cm, mean, prec) + float(
                gaussian_logpdf(ys, mean, prec).sum())

        mg, mw = np.polynomial.legendre.leggauss(240)
        mgrid = 1.05 + 1.5 * mg
        mwt = 1.5 * mw
        pg, pw = np.polynomial.legendre.leggauss(240)
        pgrid = 15.0 + 14.999999 * pg
        pwt = 14.999999 * pw
        vals = np.exp([[unnorm_log(m_, p_) for p_ in pgrid] for m_ in mgrid])
        norm = mwt @ vals @ pwt
        for mean, prec in test_points:
            exact = np.exp(centering_logpdf(post, mean, prec))
            quad = np.exp(unnorm_log(mean, prec)) / norm
            assert exact == pytest.approx(quad, abs=1e-6 * max(1.0, exact),
                                          rel=1e-5)


class TestTransitionLatents:
    def test_k_row_without_mass_raises(self, rng, monkeypatch):
        # the scan stops at the cell whose k masses all underflow, before
        # its k could bound a d draw, and leaves a valid state
        data = small_data(rng, n_times=4)
        cfg = dp_config(fix_theta=1.0, fix_c=1.0)
        state = init_chain(data, cfg, rng)
        update_slice_and_truncation(state, data, cfg, rng)
        assert state.m >= 3
        state.trans_d[:] = 1
        state.trans_k[:] = 0
        state.trans_d[2, 1] = 5
        state.sweep = 4
        real = gibbs._k_log_mass

        def lost(tab, base, d, ratio, j):
            return np.where(d == 5, -np.inf, real(tab, base, d, ratio, j))

        monkeypatch.setattr(gibbs, "_k_log_mass", lost)
        with pytest.raises(NumericalError, match=r"^k conditional has no "
                           r"mass at stick 2, gap 1 in sweep 4: "):
            update_transition_latents(state, data, cfg, rng)
        check_invariants(state, data, cfg)

    def test_first_cell_without_mass_named_across_groups(self):
        # cell (0, 0) sits in the widest group, drawn last, and cell (1, 2)
        # in the narrowest, drawn first: the error names (0, 0), the first
        # in row-major order
        upper = np.full((2, 3), 40)
        upper[0, 0], upper[1, 2] = 3000, 2
        lost = [0, 5]

        def log_mass(rows, j):
            out = np.zeros((len(j), len(rows)))
            out[:, np.isin(rows, lost)] = -np.inf
            return out

        with pytest.raises(NumericalError, match=r"^d conditional has no "
                           r"mass at stick 0, gap 0 in sweep 9: "):
            gibbs._draw_rows(log_mass, np.zeros_like(upper), upper,
                             np.random.default_rng(0), "d", 9)

    def test_d_zero_forces_k_zero_and_uniform_slice(self, rng):
        data = small_data(rng, n_times=2)
        cfg = dp_config(fix_theta=1.0, fix_c=8.0)
        state = init_chain(data, cfg, rng)
        # with c tau large the index distribution sits at zero
        os_ = []
        for _ in range(2000):
            update_transition_latents(state, data, cfg, rng)
            if np.all(state.trans_d == 0):
                assert np.all(state.trans_k == 0)
                os_.extend(state.trans_o.ravel())
        os_ = np.array(os_)
        # o | d=0 ~ U(0, 1)
        assert stats.kstest(os_, "uniform").pvalue > 0.001

    def test_k_two_point_law(self, rng):
        # d = 1 gives a two-point conditional for k; compare frequencies
        data = TimeGridDataset(times=[0.0, 1.0],
                               values=(np.array([0.0]), np.array([0.0])))
        cfg = dp_config(fix_theta=1.5, fix_c=1.0, fixed_truncation=1)
        state = init_chain(data, cfg, rng)
        v0, v1 = 0.3, 0.8
        state.sticks = np.array([[v0, v1]])
        a, b = 1.0, 1.5
        ratio = np.log(v1) + np.log(v0) - np.log1p(-v1) - np.log1p(-v0)
        from scipy.special import gammaln
        log_m = np.array([
            -gammaln(a) - gammaln(b + 1.0),
            -gammaln(a + 1.0) - gammaln(b) + ratio,
        ])
        p1 = np.exp(log_m[1] - logsumexp(log_m))
        hits = 0
        reps = 30_000
        for _ in range(reps):
            state.trans_d = np.array([[1]], dtype=np.int64)
            update_transition_latents(state, data, cfg, rng)
            hits += int(state.trans_k[0, 0] == 1)
        se = np.sqrt(p1 * (1 - p1) / reps)
        assert abs(hits / reps - p1) < 4 * se

    def test_d_marginal_matches_direct_summation(self, rng):
        data = TimeGridDataset(times=[0.0, 1.0],
                               values=(np.array([0.0]), np.array([0.0])))
        cfg = dp_config(fix_theta=1.0, fix_c=1.0, fixed_truncation=1)
        state = init_chain(data, cfg, rng)
        v0, v1 = 0.35, 0.7
        state.sticks = np.array([[v0, v1]])
        draws = []
        for _ in range(60_000):
            update_transition_latents(state, data, cfg, rng)
            draws.append(state.trans_d[0, 0])
        draws = np.array(draws)[::8]
        p = wf.WFParams(1.0, 1.0, 1.0)
        dmax = 60
        mass = np.array([
            wf.nb_weight(d, 1.0, p)
            * transition_mixture_component(v1, d, v0, p)
            for d in range(dmax)])
        mass /= mass.sum()
        counts = np.bincount(draws, minlength=dmax)[:dmax]
        exp_counts = mass * counts.sum()
        keep = exp_counts >= 5
        cut = np.nonzero(keep)[0][-1]
        obs_p = np.append(counts[:cut], counts[cut:].sum())
        exp_p = np.append(exp_counts[:cut], exp_counts[cut:].sum())
        chi2 = float(((obs_p - exp_p) ** 2 / exp_p).sum())
        pval = 1.0 - stats.chi2.cdf(chi2, len(obs_p) - 1)
        assert pval > 0.001

    def test_invariant_support(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        for _ in range(50):
            update_transition_latents(state, data, cfg, rng)
            assert np.all(state.trans_k <= state.trans_d)
            g = np.exp(-cfg.trans_slice_eta * state.trans_d)
            assert np.all(state.trans_o < g)
            assert np.all(state.trans_o > 0)


    def test_slice_underflow_names_index_sweep_and_flag(self, rng):
        # exp(-0.5 * 1600) underflows to 0, so o cannot slice d
        data = small_data(rng, n_times=3)
        cfg = dp_config(fix_theta=1.0, fix_c=1.0, fixed_truncation=2)
        state = init_chain(data, cfg, rng)
        state.trans_d[1, 0] = 1600
        state.trans_k[1, 0] = 0
        state.sweep = 17
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError) as err:
                update_transition_latents(state, data, cfg, rng)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        msg = str(err.value)
        assert "latent index d=1600" in msg
        assert "sweep 17" in msg
        assert "--trans-eta" in msg


def _ref_draw_rows(log_mass_fn, upper, lower, rng):
    """Every row padded to the global widest support, as gibbs drew
    before it grouped rows by width."""
    n_rows = len(upper)
    out = np.empty(n_rows, dtype=np.int64)
    s_max = int(upper.max(initial=0))
    supp = np.arange(s_max + 1, dtype=float)[None, :]
    chunk = max(1, 4_000_000 // (s_max + 1))
    for lo in range(0, n_rows, chunk):
        rows = np.arange(lo, min(lo + chunk, n_rows))
        with np.errstate(invalid="ignore", divide="ignore"):
            lm = log_mass_fn(rows, supp)
        valid = (supp >= lower[rows, None]) & (supp <= upper[rows, None])
        out[rows] = reference_categorical_rows(lm, valid,
                                               rng.uniform(size=len(rows)))
    return out


def _ref_k_mass(d, A, B, ratio):
    """Closed-form k | d, v log masses at support points supp."""
    return lambda rows, supp: (
        gammaln(d[rows, None] + 1.0) - gammaln(supp + 1.0)
        - gammaln(d[rows, None] - supp + 1.0) - gammaln(A[rows, None] + supp)
        - gammaln(B[rows, None] + d[rows, None] - supp)
        + supp * ratio[rows, None])


def _ref_d_mass(k, A, B, decay):
    """Closed-form d | k, o log masses at support points supp."""
    return lambda rows, supp: (
        2.0 * gammaln(A[rows, None] + B[rows, None] + supp)
        - gammaln(B[rows, None] + supp - k[rows, None])
        - gammaln(supp - k[rows, None] + 1.0) + supp * decay[rows, None])


def _ref_update_transition_latents(state, data, cfg, rng):
    """The (o, k, d) scan with global padding and closed-form masses."""
    eta2 = cfg.trans_slice_eta
    a, b = cfg.stick.params(state.m, state.theta)
    v0, v1 = state.sticks[:, :-1], state.sticks[:, 1:]
    d = state.trans_d
    shape = d.shape
    state.trans_o = gibbs._sample_slice(d, eta2, rng)
    A, B, T = (np.broadcast_to(x, shape).ravel() for x in
               (a[:, None], b[:, None], data.gaps[None, :]))
    lv0, lv1 = np.log(v0).ravel(), np.log(v1).ravel()
    l1mv0, l1mv1 = np.log1p(-v0).ravel(), np.log1p(-v1).ravel()
    d_flat = d.ravel()
    k = _ref_draw_rows(_ref_k_mass(d_flat, A, B, lv1 + lv0 - l1mv1 - l1mv0),
                       d_flat, np.zeros_like(d_flat), rng)
    state.trans_k = k.reshape(shape)
    d_hi = np.floor(-np.log(state.trans_o.ravel()) / eta2).astype(np.int64)
    decay = l1mv1 + l1mv0 - state.c * T + eta2
    state.trans_d = _ref_draw_rows(_ref_d_mass(k, A, B, decay), d_hi, k,
                                   rng).reshape(shape)


LAWS = {
    "dp": dict(stick=StickConfig.dp(1.0)),
    "py": dict(stick=StickConfig.pitman_yor(1.0, 0.25)),
    "gem_three_pairs": dict(
        stick=StickConfig.general_gem([(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)],
                                      c=1.0), fix_theta=1.0),
}


class TestTransitionDrawReference:
    """Width classes and log-gamma tables against the global-padding,
    closed-form draw: same masses up to rounding, same picks."""

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(sorted(LAWS)), m=st.integers(1, 5),
           gaps=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           wide=st.lists(st.integers(0, 1500), min_size=1, max_size=15))
    def test_masses_and_draws_match(self, law, m, gaps, seed, wide):
        gen = np.random.default_rng(seed)
        cells = m * gaps
        d = np.resize(np.array(wide), cells)
        d = np.where(gen.uniform(size=cells) < 0.5,
                     gen.integers(0, 4, size=cells), d)
        k = gen.integers(0, d + 1)
        d_hi = d + gen.integers(0, 1501 - d)
        # theta 1.7 keeps the Dirichlet b = theta off the integers
        theta = 1.0 if law == "gem_three_pairs" else 1.7
        a, b = LAWS[law]["stick"].params(m, theta)
        c = 0.8
        A, B = np.repeat(a, gaps), np.repeat(b, gaps)
        v = gen.uniform(0.01, 0.99, size=(2, cells))
        ratio = np.log(v[1]) + np.log(v[0]) - np.log1p(-v[1]) - np.log1p(-v[0])
        decay = (np.log1p(-v[1]) + np.log1p(-v[0])
                 - c * gen.uniform(0.01, 1.0, size=cells)
                 + 0.5)
        tab = gibbs._offset_gammaln(a, b, measure.stick_runs(a, b, c),
                                    size=int(max(d.max(), d_hi.max())) + 1)
        base = np.repeat(tab.base, gaps)

        def new_k(rows, j):
            return gibbs._k_log_mass(tab, base[rows], d[rows], ratio[rows], j)

        def new_d(rows, j):
            return gibbs._d_log_mass(tab, base[rows], k[rows], decay[rows], j)

        rows = np.arange(cells)
        for fresh, ref, lower, upper in (
                (new_k, _ref_k_mass(d, A, B, ratio), np.zeros_like(d), d),
                (new_d, _ref_d_mass(k, A, B, decay), k, d_hi)):
            j = np.arange(int((upper - lower).max()) + 1)[None, :]
            valid = j <= (upper - lower)[:, None]
            got = np.where(valid, fresh(rows, j.T).T, -np.inf)
            want = np.where(valid, ref(rows, lower[:, None] + j), -np.inf)
            got = got - got.max(axis=1, keepdims=True)
            want = want - want.max(axis=1, keepdims=True)
            np.testing.assert_allclose(got[valid], want[valid], rtol=0,
                                       atol=1e-10)
            draws = gibbs._draw_rows(
                fresh, lower.reshape(m, gaps), upper.reshape(m, gaps),
                np.random.default_rng(seed), "k", 0).ravel()
            expect = _ref_draw_rows(ref, upper, lower,
                                    np.random.default_rng(seed))
            np.testing.assert_array_equal(draws, expect)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_sweeps_bitwise_equal_on_dense_grid(self, law):
        data = simulate_toy(20, 2, 0.38, np.random.default_rng(5))
        assert np.allclose(data.gaps, 0.02)
        cfg = dp_config(**LAWS[law], fixed_truncation=6)
        state = init_chain(data, cfg, np.random.default_rng(1))
        ref = copy.deepcopy(state)
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(30):
            update_transition_latents(state, data, cfg, rng)
            _ref_update_transition_latents(ref, data, cfg, ref_rng)
            for name in ("trans_o", "trans_k", "trans_d"):
                np.testing.assert_array_equal(getattr(state, name),
                                              getattr(ref, name))
            update_stick_values(state, data, cfg, rng)
            update_stick_values(ref, data, cfg, ref_rng)
        assert state.trans_d.max() >= 64  # rows span several width classes

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(sorted(LAWS)), m=st.integers(1, 5),
           gaps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           wide=st.lists(st.integers(0, 600), min_size=1, max_size=12))
    def test_one_run_columns_match_base_form(self, law, m, gaps, seed, wide):
        # base None reads one run's tables as broadcast columns: the same
        # log masses, to the bit, as the per-entry base + j gathers
        gen = np.random.default_rng(seed)
        a, b = LAWS[law]["stick"].params(m, 1.7)
        runs = measure.stick_runs(a, b, 0.8)
        a, b = a[:runs[0][1]], b[:runs[0][1]]  # the first run alone
        cells = len(a) * gaps
        d = np.resize(np.array(wide), cells)
        k = gen.integers(0, d + 1)
        ratio, decay = gen.normal(size=(2, cells))
        tab = gibbs._offset_gammaln(a, b, measure.stick_runs(a, b, 0.8),
                                    size=int(d.max()) + 1)
        assert len(tab.base) == len(a) and not tab.base.any()
        base = np.zeros(cells, dtype=np.int64)
        for w in {1, int(d.max()) + 1}:
            j = np.arange(w)[:, None]
            np.testing.assert_array_equal(
                gibbs._k_log_mass(tab, None, d, ratio, j),
                gibbs._k_log_mass(tab, base, d, ratio, j))
            np.testing.assert_array_equal(
                gibbs._d_log_mass(tab, None, k, decay, j),
                gibbs._d_log_mass(tab, base, k, decay, j))


def _key_scan(law, m, gaps, seed, wide):
    """(tab, base, d, k, ratio, decay) of a random scan under law: d mixes
    the wide values with d = 0..3, a quarter of the decays are -inf (c tau
    past double range) and the tables reach d_hi up to 150 past d."""
    gen = np.random.default_rng(seed)
    cells = m * gaps
    d = np.resize(np.array(wide), cells)
    d = np.where(gen.uniform(size=cells) < 0.4,
                 gen.integers(0, 4, size=cells), d)
    k = gen.integers(0, d + 1)
    theta = 1.0 if law == "gem_three_pairs" else 1.7
    a, b = LAWS[law]["stick"].params(m, theta)
    runs = measure.stick_runs(a, b, 0.8)
    ratio, decay = gen.normal(size=(2, cells))
    decay[gen.uniform(size=cells) < 0.25] = -np.inf
    tab = gibbs._offset_gammaln(a, b, runs, size=int(d.max()) + 151)
    base = np.repeat(tab.base, gaps) if len(runs) > 1 else None
    return tab, base, d, k, ratio, decay


def _with_key_tables(tab):
    """tab with both key tables built, whatever their cost."""
    return tab._replace(
        k_keys=gibbs._key_table(tab, gibbs._k_key, 2 ** 62),
        d_keys=gibbs._key_table(tab, gibbs._d_key, 2 ** 62))


class TestLatentKeyTables:
    """The key parts of the k and d log masses, gathered from one table per
    scan or evaluated per cell: the same bits on the support."""

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(sorted(LAWS)), m=st.integers(1, 5),
           gaps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           wide=st.lists(st.integers(0, 300), min_size=1, max_size=12))
    def test_gathered_keys_match_cell_keys(self, law, m, gaps, seed, wide):
        tab, base, d, k, ratio, decay = _key_scan(law, m, gaps, seed, wide)
        gathered = _with_key_tables(tab)
        assert gathered.k_keys is not None and gathered.d_keys is not None
        size = len(tab.fact) - 1
        for w in sorted({1, 2, int(d.max()) + 1, size}):
            j = np.arange(w)[:, None]
            np.testing.assert_array_equal(
                gibbs._k_log_mass(gathered, base, d, ratio, j),
                gibbs._k_log_mass(tab, base, d, ratio, j))
            support = j <= size - 1 - k  # k + j inside the tables
            np.testing.assert_array_equal(
                gibbs._d_log_mass(gathered, base, k, decay, j)[support],
                gibbs._d_log_mass(tab, base, k, decay, j)[support])
        # the draws: unmasked gathered k masses against masked cell ones
        lower, upper = np.zeros_like(d), d
        draws = [gibbs._draw_rows(
            lambda rows, j, t=t: gibbs._k_log_mass(
                t, None if base is None else base[rows], d[rows],
                ratio[rows], j),
            lower.reshape(m, gaps), upper.reshape(m, gaps),
            np.random.default_rng(seed), "k", 0, padded=padded)
            for t, padded in ((gathered, True), (tab, False))]
        np.testing.assert_array_equal(*draws)

    @pytest.mark.parametrize("gathered", [False, True],
                             ids=["per_cell", "table"])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_k_padding_is_minus_inf(self, law, gathered):
        # past a cell's d the key reads log (d - j)! = +inf: every padding
        # entry is -inf and every support entry finite, on both paths
        tab, base, d, _, ratio, _ = _key_scan(law, 4, 3, 11,
                                              [0, 1, 5, 64, 130])
        if gathered:
            tab = _with_key_tables(tab)
        j = np.arange(len(tab.fact) - 1)[:, None]
        out = gibbs._k_log_mass(tab, base, d, ratio, j)
        past = j > d
        assert past.any() and np.all(out[past] == -np.inf)
        assert np.all(np.isfinite(out[~past]))

    @staticmethod
    def _tables_built(monkeypatch, data, cfg, sweeps):
        """Per scan, which of the k and d key tables were built."""
        rng = np.random.default_rng(1)
        state = init_chain(data, cfg, rng)
        for _ in range(sweeps):
            gibbs_sweep(state, data, cfg, rng)
        real, built = gibbs._key_table, []

        def spy(tab, key_fn, points):
            table = real(tab, key_fn, points)
            built.append(table is not None)
            return table
        monkeypatch.setattr(gibbs, "_key_table", spy)
        update_transition_latents(state, data, cfg, rng)
        return built

    def test_readme_scan_gathers_and_dense_scan_evaluates(self, monkeypatch):
        # README-shaped: some 2,000 key entries against tens of thousands
        # of support points; dense: latent indices in the hundreds, a key
        # table of a few hundred thousand entries against fewer points
        readme = simulate_toy(100, 5, 10.0, np.random.default_rng(7))
        assert self._tables_built(monkeypatch, readme, dp_config(seed=1),
                                  30) == [True, True]
        dense = simulate_toy(20, 2, 0.38, np.random.default_rng(7))
        cfg = dp_config(fix_theta=1.0, fix_c=0.5, seed=1)
        assert self._tables_built(monkeypatch, dense, cfg,
                                  30) == [False, False]


class TestStickValues:
    def test_shapes_reduce_to_displayed_formulas(self, rng):
        # single observation per time: the three boundary/interior/terminal
        # conditionals in the concentration-parameter form
        theta = 2.0
        data = TimeGridDataset(
            times=[0.0, 1.0, 2.0],
            values=(np.array([0.1]), np.array([0.2]), np.array([0.3])))
        cfg = dp_config(fix_theta=theta, fix_c=1.0)
        state = init_chain(data, cfg, rng)
        m = state.m
        k = state.trans_k
        d = state.trans_d
        s = state.s
        shape1, shape2 = stick_conditional_shapes(state, data, cfg)
        for j in range(m):
            i1 = 1.0 if s[0] == j else 0.0
            g1 = 1.0 if s[0] > j else 0.0
            assert shape1[j, 0] == pytest.approx(1.0 + k[j, 0] + i1)
            assert shape2[j, 0] == pytest.approx(
                theta + d[j, 0] - k[j, 0] + g1)
            i2 = 1.0 if s[1] == j else 0.0
            g2 = 1.0 if s[1] > j else 0.0
            assert shape1[j, 1] == pytest.approx(
                1.0 + k[j, 0] + k[j, 1] + i2)
            assert shape2[j, 1] == pytest.approx(
                theta + d[j, 0] + d[j, 1] - k[j, 0] - k[j, 1] + g2)
            i3 = 1.0 if s[2] == j else 0.0
            g3 = 1.0 if s[2] > j else 0.0
            assert shape1[j, 2] == pytest.approx(1.0 + k[j, 1] + i3)
            assert shape2[j, 2] == pytest.approx(
                theta + d[j, 1] - k[j, 1] + g3)

    def test_single_time_no_data_is_prior(self, rng):
        theta = 1.7
        data = TimeGridDataset(times=[0.0], values=(np.array([0.0]),))
        cfg = dp_config(fix_theta=theta, fix_c=1.0)
        state = init_chain(data, cfg, rng)
        # point the observation at component 0 and inspect an unused one
        state.s = np.zeros(1, dtype=np.int64)
        shape1, shape2 = stick_conditional_shapes(state, data, cfg)
        assert shape1[2, 0] == pytest.approx(1.0)
        assert shape2[2, 0] == pytest.approx(theta)

    def test_two_time_joint_matches_kernel_oracle(self, rng):
        # data-free replicate sticks under repeated (latents, sticks)
        # sweeps must preserve the stationary joint
        # pi(v1) x series kernel(v2 | v1) on a coarse grid.
        tv = stick_joint_tv(rng, replicates=300, sweeps=800, burn=100,
                            grid_n=20)
        assert tv < 0.04

    def test_membership_counts_multiple_obs(self, rng):
        data = TimeGridDataset(times=[0.0],
                               values=(np.array([0.0, 0.1, 0.2]),))
        cfg = dp_config(fix_theta=1.0, fix_c=1.0)
        state = init_chain(data, cfg, rng)
        state.s = np.array([1, 1, 2], dtype=np.int64)
        shape1, shape2 = stick_conditional_shapes(state, data, cfg)
        assert shape1[1, 0] == pytest.approx(1.0 + 2.0)
        assert shape2[1, 0] == pytest.approx(1.0 + 1.0)
        assert shape2[0, 0] == pytest.approx(1.0 + 3.0)


class TestHyperparams:
    def test_fixed_values_unchanged(self, rng, monkeypatch):
        # with no move to run the update builds no stick terms
        data = small_data(rng)
        cfg = dp_config(fix_theta=1.5, fix_c=0.5)
        state = init_chain(data, cfg, rng)
        theta0, c0 = state.theta, state.c
        monkeypatch.setattr(gibbs, "_StickTerms", None)
        for _ in range(50):
            update_hyperparams(state, data, cfg, rng)
        assert state.theta == theta0
        assert state.c == c0

    def test_prior_recovery_without_components(self, rng):
        # with no components the conditional reduces to the prior
        data = small_data(rng)
        prior = GammaPrior(2.0, 0.5)
        cfg = dp_config(theta_prior=prior, c_prior=prior, burn_in=10 ** 9)
        state = init_chain(data, cfg, rng)
        # shrink the component block to zero rows
        state.m = 0
        state.sticks = np.zeros((0, data.n_times))
        state.trans_o = np.zeros((0, data.n_times - 1))
        state.trans_k = np.zeros((0, data.n_times - 1), dtype=np.int64)
        state.trans_d = np.zeros((0, data.n_times - 1), dtype=np.int64)
        state.atoms = np.zeros((0, 2))
        draws = np.empty(30_000)
        for i in range(len(draws)):
            update_hyperparams(state, data, cfg, rng)
            draws[i] = state.theta
        thin = draws[::15]
        ks = stats.kstest(thin, stats.gamma(2.0, scale=2.0).cdf)
        assert ks.pvalue > 0.001

    def test_single_stick_conditional_matches_grid(self, rng):
        # frozen latents: MH draws of theta against the grid-normalised
        # exponential of the log conditional
        data = TimeGridDataset(
            times=[0.0, 0.6, 1.2],
            values=(np.array([0.0]), np.array([0.0]), np.array([0.0])))
        cfg = dp_config(fixed_truncation=1, fix_c=1.0, burn_in=10 ** 9,
                        theta_prior=GammaPrior(2.0, 0.5))
        state = init_chain(data, cfg, rng)
        state.sticks = np.array([[0.3, 0.5, 0.4]])
        state.trans_k = np.array([[1, 2]], dtype=np.int64)
        state.trans_d = np.array([[3, 4]], dtype=np.int64)
        draws = np.empty(60_000)
        for i in range(len(draws)):
            update_hyperparams(state, data, cfg, rng)
            draws[i] = state.theta
        draws = draws[2000::6]

        grid = np.linspace(1e-3, 25.0, 3000)
        logpost = np.array([
            cfg.theta_prior.logpdf(t) + reference_stick_likelihood(
                state.sticks, state.trans_k, state.trans_d, data.gaps,
                *cfg.stick.params(state.m, t), state.c)
            for t in grid])
        dens = np.exp(logpost - logpost.max())
        dens /= np.trapezoid(dens, grid)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        bins = np.quantile(draws, np.linspace(0, 1, 21))
        bins[0], bins[-1] = 0.0, np.inf
        obs, _ = np.histogram(draws, bins=np.clip(bins, 0, 25.0))
        exp_p = np.diff(np.interp(np.clip(bins, 0, 25.0), grid, cdf,
                                  left=0.0, right=1.0))
        tv = 0.5 * np.abs(obs / obs.sum() - exp_p / exp_p.sum()).sum()
        assert tv < 0.03

    @pytest.mark.parametrize("fixed, calls", [
        ({}, 4), ({"fix_theta": 2.0}, 2), ({"fix_c": 1.0}, 2),
        ({"tie_c_to_theta": True}, 2)])
    def test_stick_likelihood_evaluations(self, rng, monkeypatch, fixed,
                                          calls):
        # one call evaluates the target `calls` times (current value and
        # proposal of each move) and builds the theta terms once per
        # theta it visits; an evaluation at a given c, and so the c
        # move's current value and proposal, calls no log-gamma
        data = small_data(rng)
        cfg = dp_config(**fixed)
        state = init_chain(data, cfg, rng)
        count = dict.fromkeys(["gammaln", "staged", "terms", "builds",
                               "evaluations", "evaluated_gammaln"], 0)
        real_gammaln = gibbs.gammaln
        real_init, real_at = gibbs._StickTerms.__init__, gibbs._StickTerms.at

        def counted_gammaln(x):
            count["gammaln"] += 1
            return real_gammaln(x)

        def staged(name, fn):
            def wrapper(*args):
                before = count["gammaln"]
                count[name] += 1
                out = fn(*args)
                count["staged"] += count["gammaln"] - before
                return out
            return wrapper

        def at(self, a, b):
            log_lik = staged("builds", real_at)(self, a, b)

            def evaluated(c):
                before = count["gammaln"]
                count["evaluations"] += 1
                value = log_lik(c)
                count["evaluated_gammaln"] += count["gammaln"] - before
                return value
            return evaluated

        monkeypatch.setattr(gibbs, "gammaln", counted_gammaln)
        monkeypatch.setattr(wf, "gammaln", counted_gammaln)
        monkeypatch.setattr(gibbs._StickTerms, "__init__",
                            staged("terms", real_init))
        monkeypatch.setattr(gibbs._StickTerms, "at", at)
        for _ in range(5):
            count.update(dict.fromkeys(count, 0))
            update_hyperparams(state, data, cfg, rng)
            assert count["evaluations"] == calls
            assert count["terms"] == 1
            assert count["builds"] == (1 if "fix_theta" in fixed else 2)
            assert count["staged"] > 0
            assert count["evaluated_gammaln"] == 0

    @pytest.mark.parametrize("stick", [
        StickConfig.dp(1.0), StickConfig.pitman_yor(1.0, 0.25)],
        ids=["dp", "py"])
    def test_staged_target_equals_one_expression(self, rng, stick):
        # every (theta, c) of a grid, from one set of cached terms, equals
        # the fresh one-expression value to the bit; m = 0 too
        data = small_data(rng, n_times=8)
        state = init_chain(data, dp_config(stick=stick), rng)
        for _ in range(3):
            gibbs_sweep(state, data, dp_config(stick=stick), rng)
        for m in (state.m, 0):
            arrays = (state.sticks[:m], state.trans_k[:m],
                      state.trans_d[:m], data.gaps)
            terms = gibbs._StickTerms(*arrays)
            for theta in (0.05, 0.7, 1.0, 3.3, 40.0):
                a, b = stick.params(m, theta)
                log_lik = terms.at(a, b)
                for c in (1e-3, 0.2, 0.5, 1.7, 25.0):
                    expected = reference_stick_likelihood(*arrays, a, b, c)
                    assert log_lik(c) == expected

    @pytest.mark.parametrize("stick, fixed", [
        (StickConfig.dp(1.0), {}), (StickConfig.dp(1.0), {"fix_theta": 2.0}),
        (StickConfig.dp(1.0), {"tie_c_to_theta": True}),
        (StickConfig.pitman_yor(1.0, 0.25), {})],
        ids=["dp", "fix_theta", "tie", "py"])
    def test_moves_evaluate_the_exact_target(self, rng, monkeypatch, stick,
                                             fixed):
        # every stick likelihood a sweep evaluates, for the theta and c
        # moves and for label swaps, equals the one-expression value
        data = small_data(rng)
        cfg = dp_config(stick=stick, **fixed)
        state = init_chain(data, cfg, rng)
        real_init, real_at = gibbs._StickTerms.__init__, gibbs._StickTerms.at
        seen = [0]

        def init(self, *arrays):
            real_init(self, *arrays)
            self.arrays = arrays

        def at(self, a, b):
            log_lik = real_at(self, a, b)

            def checked(c):
                seen[0] += 1
                value = log_lik(c)
                assert value == reference_stick_likelihood(*self.arrays,
                                                           a, b, c)
                return value
            return checked

        monkeypatch.setattr(gibbs._StickTerms, "__init__", init)
        monkeypatch.setattr(gibbs._StickTerms, "at", at)
        for _ in range(10):
            gibbs_sweep(state, data, cfg, rng)
        assert seen[0] >= 20

    @pytest.mark.parametrize("stick, fixed", [
        (StickConfig.dp(1.0), {}), (StickConfig.dp(1.0), {"fix_theta": 2.0}),
        (StickConfig.dp(1.0), {"fix_c": 1.0}),
        (StickConfig.dp(1.0), {"tie_c_to_theta": True}),
        (StickConfig.pitman_yor(1.0, 0.25), {})],
        ids=["dp", "fix_theta", "fix_c", "tie", "py"])
    def test_matches_two_block_reference(self, rng, stick, fixed):
        # 200 calls, the first 100 in burn-in: theta, c, every adaptation
        # field and the generator equal the two-block update's bit for bit
        data = small_data(rng)
        cfg = dp_config(stick=stick, burn_in=100, **fixed)
        state = init_chain(data, cfg, rng)
        for _ in range(3):
            gibbs_sweep(state, data, cfg, rng)
        state.sweep = 0
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        for _ in range(200):
            update_hyperparams(state, data, cfg, rng)
            two_block_hyperparams(ref, data, cfg, ref_rng)
            state.sweep += 1
            ref.sweep += 1
            assert (state.theta, state.c) == (ref.theta, ref.c)
            assert state.mh == ref.mh
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_components_target_is_zero_without_terms(self, rng,
                                                         monkeypatch):
        # at m = 0 every factor of the target is an empty sum: the update
        # builds no stick terms and moves exactly as the two-block
        # reference, which builds them
        data = small_data(rng)
        cfg = dp_config(burn_in=100)
        state = init_chain(data, cfg, rng)
        state.m = 0
        for name in ("sticks", "trans_o", "trans_k", "trans_d", "atoms"):
            setattr(state, name, getattr(state, name)[:0])
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        for _ in range(200):
            two_block_hyperparams(ref, data, cfg, ref_rng)
            ref.sweep += 1
        monkeypatch.setattr(gibbs, "_StickTerms", None)
        for _ in range(200):
            update_hyperparams(state, data, cfg, rng)
            state.sweep += 1
        assert (state.theta, state.c) == (ref.theta, ref.c)
        assert state.mh == ref.mh
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    # b values just off binade edges and between them; d across powers
    # of two up to 2,048, so a + b + d and b + d - k round at binade edges
    EDGE_B = (0.1, 1.0 / 3.0, 1.37, 4.0285, 40.0)

    @settings(max_examples=60, deadline=None)
    @given(law=st.sampled_from(["dp", "py", "gem"]),
           b0=st.sampled_from(EDGE_B), m=st.integers(1, 4),
           gaps=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           powers=st.lists(st.tuples(st.integers(0, 11),
                                     st.integers(-1, 1)),
                           min_size=1, max_size=8),
           gather=st.booleans())
    def test_gathered_terms_match_one_expression(self, law, b0, m, gaps,
                                                 seed, powers, gather):
        # the log-gamma tables give the one-expression likelihood to the
        # bit, gathered (ratio 0 gathers every factor) or at the default
        # cost rule; GEM pairs share a and b across different pairs
        gen = np.random.default_rng(seed)
        stick = {"dp": StickConfig.dp(b0),
                 "py": StickConfig.pitman_yor(b0, 0.25),
                 "gem": StickConfig.general_gem(
                     [(1.0, b0), (1.5, b0), (1.5, 2 * b0 + 1.0)])}[law]
        a, b = stick.params(m, b0)
        cells = m * gaps
        d = np.resize([max(2 ** p + q, 0) for p, q in powers], cells)
        d = np.where(gen.uniform(size=cells) < 0.3,
                     gen.integers(0, 3, size=cells), d).reshape(m, gaps)
        k = gen.integers(0, d + 1)
        sticks = gen.uniform(0.01, 0.99, size=(m, gaps + 1))
        taus = gen.uniform(0.01, 2.0, size=gaps)
        with pytest.MonkeyPatch.context() as patch:
            if gather:
                patch.setattr(gibbs, "_GATHER_RATIO", 0)
            log_lik = gibbs._StickTerms(sticks, k, d, taus).at(a, b)
        for c in (1e-3, 0.7, 30.0):
            assert log_lik(c) == reference_stick_likelihood(
                sticks, k, d, taus, a, b, c)

    def test_tie_keeps_c_locked(self, rng):
        data = small_data(rng)
        cfg = dp_config(tie_c_to_theta=True)
        state = init_chain(data, cfg, rng)
        for _ in range(30):
            gibbs_sweep(state, data, cfg, rng)
            assert state.c == pytest.approx(state.theta / 2.0)


class TestLabelSwaps:
    @staticmethod
    def _count_path_prior_calls(stick, monkeypatch, u_fn):
        # path-prior terms evaluated; every pair that evaluates any builds
        # the terms of its two sticks once each
        data = simulate_toy(6, 3, 2.0, np.random.default_rng(1))
        cfg = dp_config(stick=stick, fixed_truncation=6, fix_theta=1.0)
        rng = np.random.default_rng(3)
        state = init_chain(data, cfg, rng)
        state.s[:] = 0
        state.u = u_fn(cfg.slice_eta, data.n_obs)
        count = {"builds": 0, "at": 0}
        real_init, real_at = gibbs._StickTerms.__init__, gibbs._StickTerms.at

        def init(self, *arrays):
            count["builds"] += 1
            real_init(self, *arrays)

        def at(self, a, b):
            count["at"] += 1
            return real_at(self, a, b)

        monkeypatch.setattr(gibbs._StickTerms, "__init__", init)
        monkeypatch.setattr(gibbs._StickTerms, "at", at)
        update_label_swaps(state, data, cfg, rng)
        assert 2 * count["builds"] == count["at"]
        return count["at"]

    @pytest.mark.parametrize("stick, pairs_differing", [
        (StickConfig.dp(1.0), 0),
        (StickConfig.pitman_yor(1.0, 0.0), 0),
        (StickConfig.general_gem([(1.0, 2.0)]), 0),
        (StickConfig.general_gem([(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)]), 2),
        (StickConfig.pitman_yor(1.0, 0.3), 5),
    ], ids=["dp", "py_sigma0", "gem_one_pair", "gem_three_pairs", "py"])
    def test_path_prior_only_for_differing_neighbours(
            self, stick, pairs_differing, monkeypatch):
        # with u tiny every pair of the m = 6 labels passes the slice
        # check; each pair with different (a, b, c) costs four terms from
        # two builds
        tiny = lambda eta, n: np.full(n, 1e-300)
        assert self._count_path_prior_calls(stick, monkeypatch, tiny) \
            == 4 * pairs_differing
        # every observation at label 1 with u above psi(2): pair (1, 2)
        # fails the slice check and no swap moves any membership
        high = lambda eta, n: np.full(n, np.exp(-1.5 * eta))
        expected = 4 * pairs_differing - (4 if pairs_differing else 0)
        assert self._count_path_prior_calls(stick, monkeypatch, high) \
            == expected


    @pytest.mark.parametrize("stick", [
        StickConfig.dp(1.0), StickConfig.pitman_yor(1.0, 0.3),
        StickConfig.general_gem([(1.0, 1.0), (1.0, 2.0), (1.5, 2.5)]),
    ], ids=["dp", "py", "gem_three_pairs"])
    @pytest.mark.parametrize("labels", [(1, 3), (0, 2)],
                             ids=["empty_below_occupied",
                                  "occupied_below_empty"])
    def test_matches_guarded_reference(self, stick, labels):
        # one pass without the emptiness guards equals one pass with them
        # bit for bit: sticks, latents, atoms, memberships, generator
        data = simulate_toy(6, 3, 2.0, np.random.default_rng(1))
        cfg = dp_config(stick=stick, fixed_truncation=6, fix_theta=1.0)
        rng = np.random.default_rng(5)
        state = init_chain(data, cfg, rng)
        state.s = np.resize(np.array(labels, dtype=np.int64), data.n_obs)
        state.u = gibbs._sample_u(state.s, cfg.slice_eta, rng)
        ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
        update_label_swaps(state, data, cfg, rng)
        guarded_label_swaps(ref, data, cfg, ref_rng)
        assert np.any(state.s != np.resize(labels, data.n_obs))  # a swap ran
        for name in ("s", *store._COMPONENTS):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(ref, name), err_msg=name)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(st.integers(0, 5), min_size=18, max_size=18),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chained_swaps_match_guarded_reference(self, labels, seed):
        # accepted swaps at neighbouring pairs hand a block on: the label
        # blocks of one argsort stay in step with fresh masks
        data = simulate_toy(6, 3, 2.0, np.random.default_rng(1))
        cfg = dp_config(stick=StickConfig.pitman_yor(1.0, 0.3),
                        fixed_truncation=6, fix_theta=1.0)
        rng = np.random.default_rng(seed)
        state = init_chain(data, cfg, rng)
        state.s = np.array(labels, dtype=np.int64)
        state.u = gibbs._sample_u(state.s, cfg.slice_eta, rng)
        for _ in range(3):
            ref, ref_rng = copy.deepcopy(state), copy.deepcopy(rng)
            update_label_swaps(state, data, cfg, rng)
            guarded_label_swaps(ref, data, cfg, ref_rng)
            for name in ("s", *store._COMPONENTS):
                np.testing.assert_array_equal(getattr(state, name),
                                              getattr(ref, name), err_msg=name)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSweepAndChain:
    @pytest.mark.parametrize("swaps", [True, False])
    def test_sweep_calls_updates_in_documented_order(self, rng, monkeypatch,
                                                     swaps):
        # the benchmark's traced replay of run_chain relies on this order
        order = ["update_slice_and_truncation", "update_transition_latents",
                 "update_stick_values", "update_locations",
                 "update_hyperparams", "update_membership",
                 "update_label_swaps"]
        calls = []
        for name in order:
            monkeypatch.setattr(
                gibbs, name,
                lambda state, data, cfg, rng, name=name: calls.append(name))
        data = small_data(rng)
        cfg = dp_config(label_swap_moves=swaps)
        state = init_chain(data, cfg, rng)
        gibbs_sweep(state, data, cfg, rng)
        assert calls == (order if swaps else order[:-1])
        assert state.sweep == 1

    def test_invariants_after_many_sweeps(self, rng):
        data = small_data(rng, n_times=8, per_time=2)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        for _ in range(300):
            gibbs_sweep(state, data, cfg, rng)
            check_invariants(state, data, cfg)

    def test_label_swaps_preserve_invariants(self, rng):
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        for _ in range(50):
            gibbs_sweep(state, data, cfg, rng)
        for _ in range(50):
            update_label_swaps(state, data, cfg, rng)
            check_invariants(state, data, cfg)

    @pytest.mark.parametrize("name, edit", [
        ("u", lambda a: a[:-1]),
        ("s", lambda a: a.astype(float)),
        ("trans_k", lambda a: a[:-1]),
        ("atoms", lambda a: a[:, :1]),
    ], ids=["u_one_short", "s_reals", "trans_k_row_short", "atoms_column"])
    def test_invariants_name_an_array_off_the_layout(self, rng, name, edit):
        # the layout rule runs before any value rule, so an array of the
        # wrong shape or dtype is named rather than broadcast
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        setattr(state, name, edit(getattr(state, name)))
        with pytest.raises(AssertionError, match=f"^{name} has "):
            check_invariants(state, data, cfg)

    def test_seeded_trajectories_identical(self, rng):
        data = small_data(rng)
        cfg = dp_config(iters=30, burn_in=10, thin=3, seed=5)
        d1 = run_chain(data, cfg)
        d2 = run_chain(data, cfg)
        np.testing.assert_array_equal(d1.theta, d2.theta)
        np.testing.assert_array_equal(d1.sticks[~np.isnan(d1.sticks)],
                                      d2.sticks[~np.isnan(d2.sticks)])

    def test_draw_count_schedule(self, rng):
        data = small_data(rng)
        draws = run_chain(data, dp_config(iters=40, burn_in=15, thin=4))
        assert draws.n_draws == 10
        draws = run_chain(data, dp_config(iters=5, burn_in=0, thin=5))
        assert draws.n_draws == 1

    def test_translation_invariance_bitwise(self, rng):
        data = small_data(rng)
        cfg = dp_config(iters=25, burn_in=5, thin=5, seed=3)
        d1 = run_chain(data, cfg)
        d2 = run_chain(TimeGridDataset(data.times + 37.5, data.values), cfg)
        np.testing.assert_array_equal(d1.theta, d2.theta)
        np.testing.assert_array_equal(
            d1.sticks[~np.isnan(d1.sticks)], d2.sticks[~np.isnan(d2.sticks)])

    def test_archive_round_trip(self, rng, tmp_path):
        data = small_data(rng)
        draws = run_chain(data, dp_config(iters=12, burn_in=4, thin=2))
        path = tmp_path / "draws.npz"
        draws.save(path)
        back = PosteriorDraws.load(path)
        np.testing.assert_array_equal(back.m, draws.m)
        np.testing.assert_array_equal(
            back.sticks[~np.isnan(back.sticks)],
            draws.sticks[~np.isnan(draws.sticks)])

    def test_archive_load_streams_members(self, tmp_path):
        # each member decompresses straight into its array, so a load
        # peaks near the arrays it returns (8 MB of sticks here), not at
        # them plus their decompressed bytes
        rng = np.random.default_rng(0)
        n_draws, width, n_times = 100, 20, 500
        draws = PosteriorDraws(
            times=np.arange(n_times, dtype=float), m=np.full(n_draws, width),
            theta=rng.uniform(1, 2, n_draws), c=rng.uniform(1, 2, n_draws),
            sticks=rng.uniform(0.1, 0.9, (n_draws, width, n_times)),
            atom_mean=rng.normal(size=(n_draws, width)),
            atom_prec=rng.uniform(1, 2, (n_draws, width)))
        path = tmp_path / "draws.npz"
        draws.save(path)
        tracemalloc.start()
        try:
            back = PosteriorDraws.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(getattr(back, f.name).nbytes for f in fields(back)
                   if isinstance(getattr(back, f.name), np.ndarray))
        assert peak < 1.5 * size

    def test_archive_save_streams_members(self, tmp_path):
        # each array goes to the compressor in 1 MB slices of its own
        # buffer, so a save of 8 MB of draws peaks below half of them, not
        # at a serialised copy of each array plus its compressed bytes;
        # the sticks span several slices and still read back exactly
        rng = np.random.default_rng(0)
        n_draws, width, n_times = 100, 20, 500
        m = rng.integers(width // 2, width + 1, n_draws)
        sticks = rng.uniform(0.1, 0.9, (n_draws, width, n_times))
        sticks[np.arange(width) >= m[:, None]] = np.nan
        draws = PosteriorDraws(
            times=np.arange(n_times, dtype=float), m=m,
            theta=rng.uniform(1, 2, n_draws), c=rng.uniform(1, 2, n_draws),
            sticks=sticks, atom_mean=rng.normal(size=(n_draws, width)),
            atom_prec=rng.uniform(1, 2, (n_draws, width)))
        tracemalloc.start()
        try:
            draws.save(tmp_path / "draws.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(getattr(draws, f.name).nbytes for f in fields(draws)
                   if isinstance(getattr(draws, f.name), np.ndarray))
        assert peak < 0.5 * size
        back = PosteriorDraws.load(tmp_path / "draws.npz")
        np.testing.assert_array_equal(back.sticks, sticks)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_archive_round_trip_exact(self, data):
        # any valid draws, NaN padding beyond each draw's own m included,
        # come back exactly and save to the same bytes again
        n_draws = data.draw(st.integers(1, 5))
        n_times = data.draw(st.integers(1, 4))
        ms = np.array(data.draw(st.lists(st.integers(1, 6), min_size=n_draws,
                                         max_size=n_draws)), dtype=np.int64)
        floats = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=0.0, exclude_min=True,
                             allow_infinity=False)
        unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

        def padded(elements, *shape):
            out = data.draw(hnp.arrays(float, (n_draws, int(ms.max()), *shape),
                                       elements=elements))
            for i, mi in enumerate(ms):
                out[i, mi:] = np.nan
            return out

        draws = PosteriorDraws(
            times=np.sort(data.draw(hnp.arrays(float, n_times,
                                               elements=floats))),
            m=ms,
            theta=data.draw(hnp.arrays(float, n_draws, elements=positive)),
            c=data.draw(hnp.arrays(float, n_draws, elements=positive)),
            sticks=padded(unit, n_times), atom_mean=padded(floats),
            atom_prec=padded(positive),
            config_json=data.draw(st.text()),
            config_digest=data.draw(st.text()))
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp, "a.npz"), Path(tmp, "b.npz")
            draws.save(first)
            back = PosteriorDraws.load(first)
            for field in fields(PosteriorDraws):
                np.testing.assert_array_equal(getattr(back, field.name),
                                              getattr(draws, field.name))
            back.save(again)
            assert again.read_bytes() == first.read_bytes()

    def test_checkpoint_resume_bit_identical(self, rng, tmp_path):
        data = small_data(rng)
        cfg = dp_config(iters=30, burn_in=10, thin=2, seed=21)
        cp = tmp_path / "cp.npz"
        full = run_chain(data, cfg, checkpoint_path=cp, checkpoint_every=17)
        resumed = run_chain(data, cfg, resume_from=cp)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        full.save(p1)
        resumed.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_config_mismatch(self, rng, tmp_path):
        data = small_data(rng)
        cfg = dp_config(iters=10, burn_in=2, seed=21)
        cp = tmp_path / "cp.npz"
        state = init_chain(data, cfg, rng)
        save_checkpoint(cp, state, rng, cfg, [])
        with pytest.raises(DataError, match="different configuration"):
            load_checkpoint(cp, dp_config(iters=10, burn_in=2, seed=99), data)

    def test_checkpoint_members_fixed(self, rng, tmp_path):
        # the state arrays and the padded draws, however many draws; the
        # sweep is set to one that has collected them
        data = small_data(rng)
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        snap = store._snapshot(state)
        expected = {"meta.json"} | {f"{name}.npy" for name in (
            "s", "u", "sticks", "trans_o", "trans_k", "trans_d", "atoms",
            *(f"draws_{a}" for a in ("m", "theta", "c", "sticks",
                                     "atom_mean", "atom_prec")))}
        for count in (0, 1, 4):
            state.sweep = cfg.burn_in + count * cfg.thin
            cp = tmp_path / f"cp{count}.npz"
            save_checkpoint(cp, state, rng, cfg, [snap] * count)
            assert set(zipfile.ZipFile(cp).namelist()) == expected
            assert len(load_checkpoint(cp, cfg, data)[2]) == count

    def test_resume_from_burn_in_checkpoint(self, rng, tmp_path):
        # the only checkpoint falls in burn-in and holds no draws
        data = small_data(rng)
        cfg = dp_config(iters=6, burn_in=10, thin=2, seed=8)
        cp = tmp_path / "cp.npz"
        full = run_chain(data, cfg, checkpoint_path=cp, checkpoint_every=8)
        state, _, snapshots = load_checkpoint(cp, cfg, data)
        assert state.sweep == 8 and snapshots == []
        resumed = run_chain(data, cfg, resume_from=cp)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        full.save(p1)
        resumed.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_one_checkpoint_refused(self, rng, tmp_path):
        # versions 2 (no dataset digest) and 3 (padded draws) are refused
        # as well, naming the version found and what to do
        cfg = dp_config()
        cp = tmp_path / "cp.npz"
        for version in (1, 2, 3):
            write_container(cp, {"format": "diffmix-checkpoint",
                                 "version": version,
                                 "config_digest": cfg.digest(),
                                 "n_snapshots": 0}, {})
            with pytest.raises(DataError, match=(
                    f"at version 4 \\(found diffmix-checkpoint version "
                    f"{version}\\); drop --resume")):
                load_checkpoint(cp, cfg, small_data(rng))

    def test_draws_archive_format_and_version_checked(self, rng, tmp_path):
        data = small_data(rng)
        cfg = dp_config(iters=4, burn_in=2)
        draws = run_chain(data, cfg)
        # a version 1 archive (padded draws) names its version and the fix
        arrays = {name: getattr(draws, name) for name in (
            "times", "m", "theta", "c", "sticks", "atom_mean", "atom_prec")}
        path = tmp_path / "draws.npz"
        write_container(path, {"format": "diffmix-draws", "version": 1}, arrays)
        with pytest.raises(DataError, match=(
                "at version 2 \\(found diffmix-draws version 1\\); re-run "
                "diffmix fit")):
            PosteriorDraws.load(path)
        cp = tmp_path / "cp.npz"
        save_checkpoint(cp, init_chain(data, cfg, rng), rng, cfg, [])
        with pytest.raises(DataError, match="diffmix-draws"):
            PosteriorDraws.load(cp)

    @pytest.mark.parametrize("case", ["missing", "no_draws", "short_sticks",
                                      "theta", "stick"])
    def test_malformed_draws_archive_refused(self, rng, tmp_path, case):
        # hand-built archives of each draw's own rows, stacked
        draws = run_chain(small_data(rng), dp_config(iters=4, burn_in=2))
        arrays = stored_members(draws)
        message = {"missing": "lacks atom_prec",
                   "no_draws": "at least one draw",
                   "short_sticks": "sticks has float64 shape",
                   "theta": f"draw 2 (m = {draws.m[2]}): theta not finite",
                   "stick": f"draw 1 (m = {draws.m[1]}): sticks outside"}[case]
        if case == "missing":
            del arrays["atom_prec"]
        elif case == "no_draws":
            arrays = {name: a if name == "times" else a[:0]
                      for name, a in arrays.items()}
        elif case == "short_sticks":
            arrays["sticks"] = arrays["sticks"][:, 1:]
        elif case == "theta":
            arrays["theta"][2] = np.inf
        else:
            arrays["sticks"][draws.m[0] + draws.m[1] - 1, 0] = 1.0
        path = tmp_path / "draws.npz"
        write_container(path, {"format": "diffmix-draws", "version": 2},
                        arrays)
        with pytest.raises(DataError, match=re.escape(message)):
            PosteriorDraws.load(path)

    @pytest.mark.parametrize("name, damage", [
        ("theta", lambda b: b"\0" + b[1:]), ("sticks", lambda b: b"\0" + b[1:]),
        ("theta", lambda b: b[:-8]), ("sticks", lambda b: b[:-8]),
        ("sticks", lambda b: b + bytes(8)),
    ], ids=["theta_magic", "sticks_magic", "theta_short", "sticks_short",
            "sticks_long"])
    def test_damaged_member_refused(self, rng, tmp_path, name, damage):
        # a member re-zipped with a valid CRC but a bad .npy magic byte, or
        # fewer or more bytes than its header says
        draws = run_chain(small_data(rng), dp_config(iters=4, burn_in=2))
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        draws.save(good)
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
            for member in src.namelist():
                payload = src.read(member)
                dst.writestr(member, damage(payload)
                             if member == name + ".npy" else payload)
        with pytest.raises(DataError, match=f"cannot read archive {bad}"):
            PosteriorDraws.load(bad)

    @pytest.mark.parametrize("name", ["sticks", "atom_mean", "atom_prec"])
    def test_draws_archive_rows_must_match_m(self, rng, tmp_path, name):
        # a row member one row short of what m sums to is named with it
        draws = run_chain(small_data(rng), dp_config(iters=4, burn_in=2))
        arrays = stored_members(draws)
        arrays[name] = arrays[name][1:]
        path = tmp_path / "draws.npz"
        write_container(path, {"format": "diffmix-draws", "version": 2},
                        arrays)
        with pytest.raises(DataError, match=re.escape(
                f"m sums to {draws.m.sum()} but {name} holds float64 shape")):
            PosteriorDraws.load(path)

    def test_draws_archive_stores_own_rows(self, rng, tmp_path):
        # sticks holds one row per component of each draw, sum(m) in all,
        # and the stored (not deflated) file is those rows' bytes plus
        # the zip and .npy headers and the config: a few KB
        draws = run_chain(small_data(rng), dp_config(iters=60, burn_in=2))
        assert draws.m.min() < draws.m.max()  # padding would show
        path = tmp_path / "draws.npz"
        draws.save(path)
        names = ("times", "m", "theta", "c", "sticks", "atom_mean",
                 "atom_prec")
        _, arrays = read_container(path, "diffmix-draws", 2, names, "")
        assert arrays["sticks"].shape == (draws.m.sum(), len(draws.times))
        own = sum(a.nbytes for a in stored_members(draws).values())
        assert own < path.stat().st_size < own + 4096 + len(
            draws.config_json)
        with zipfile.ZipFile(path) as zf:
            assert {info.compress_type for info in zf.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_checkpoint_arguments_validated(self, rng, tmp_path):
        data = small_data(rng)
        cp = tmp_path / "cp.npz"
        for kwargs in ({"checkpoint_path": cp, "checkpoint_every": 0},
                       {"checkpoint_path": cp},
                       {"checkpoint_every": 5}):
            with pytest.raises(ValueError):
                run_chain(data, dp_config(), **kwargs)

    def test_resume_on_other_dataset_refused(self, rng, tmp_path):
        cfg = dp_config(iters=6, burn_in=4, seed=2)
        cp = tmp_path / "cp.npz"
        run_chain(small_data(rng), cfg, checkpoint_path=cp,
                  checkpoint_every=5)
        same_shape = small_data(rng)
        for other in (small_data(rng, n_times=7), small_data(rng, per_time=3),
                      same_shape):
            with pytest.raises(DataError, match="another dataset"):
                run_chain(other, cfg, resume_from=cp)

    def test_pitman_yor_runs(self, rng):
        data = small_data(rng)
        cfg = dp_config(stick=StickConfig.pitman_yor(1.0, 0.3, c=1.0))
        state = init_chain(data, cfg, rng)
        for _ in range(40):
            gibbs_sweep(state, data, cfg, rng)
            check_invariants(state, data, cfg)

    def test_pitman_yor_sigma_zero_matches_dp(self, rng, monkeypatch):
        # Pitman-Yor with sigma = 0 is the DP law: same draws, same
        # number of series-index draw calls
        data = small_data(rng, n_times=8)
        original = wf._draw_index
        draws, calls = [], []
        for stick in (StickConfig.dp(1.0), StickConfig.pitman_yor(1.0, 0.0)):
            count = [0]

            def counted(cum, gen, size, count=count):
                count[0] += 1
                return original(cum, gen, size)

            monkeypatch.setattr(wf, "_draw_index", counted)
            draws.append(run_chain(data, dp_config(stick=stick, seed=4)))
            calls.append(count[0])
        assert calls[0] == calls[1] > 0
        for field in ("m", "theta", "c", "sticks", "atom_mean", "atom_prec"):
            np.testing.assert_array_equal(getattr(draws[0], field),
                                          getattr(draws[1], field))

    def test_unequal_spacing_runs_and_uses_gaps(self, rng):
        values = tuple(np.array([v]) for v in [0.1, 0.5, -0.2, 0.3])
        data = TimeGridDataset(times=[0.0, 0.1, 1.7, 2.0], values=values)
        cfg = dp_config(iters=15, burn_in=5, thin=3, seed=13)
        state = init_chain(data, cfg, rng)
        for _ in range(40):
            gibbs_sweep(state, data, cfg, rng)
            check_invariants(state, data, cfg)
        # a global shift leaves the gaps, and hence the draws, unchanged
        d1 = run_chain(data, cfg)
        d2 = run_chain(TimeGridDataset(data.times - 5.0, data.values), cfg)
        np.testing.assert_array_equal(d1.theta, d2.theta)

    def test_single_time_dataset_runs(self, rng):
        data = TimeGridDataset(times=[0.0],
                               values=(np.array([0.2, 0.4, -0.1]),))
        cfg = dp_config()
        state = init_chain(data, cfg, rng)
        for _ in range(50):
            gibbs_sweep(state, data, cfg, rng)
            check_invariants(state, data, cfg)

import math
import os
import struct

import numpy as np
import pytest

from segkernel import profile
from segkernel.errors import (
    DegenerateFit,
    NoConvergence,
    WindowTooContaminated,
)
from segkernel.profile import (
    CACHE_HEADER,
    DEFAULT_TAIL_TOL,
    AsymptoticConstants,
    ProfileTable,
    discrete_residual,
    eval_profile,
    extract_asymptotics,
    get_profile,
    load_profile,
    save_profile,
    solve_profile,
)

# pinned from a reference run of this implementation (T=12, N=4801)
A_PINNED = 1.8868341141185854
B_PINNED = 0.8907140319422463


def center(p):
    return (p.n_nodes - 1) // 2


class TestSolve:
    def test_residual_within_tolerance(self, table):
        assert discrete_residual(table) <= 1e-10

    def test_normalization_exact(self, table):
        j0 = center(table)
        assert table.v1[j0] == 1.0
        assert table.v2[j0] == 1.0

    def test_center_derivative_antisymmetry_exact(self, table):
        j0 = center(table)
        assert table.dv1[j0] == -table.dv2[j0]

    def test_strict_monotonicity(self, table):
        assert np.all(table.dv1 > 0)

    def test_mirror_symmetry(self, table):
        assert np.max(np.abs(table.v1[::-1] - table.v2)) <= 1e-12
        assert np.max(np.abs(table.dv1[::-1] + table.dv2)) <= 1e-12

    def test_tails_below_tolerance(self, table):
        assert table.v2[-1] <= DEFAULT_TAIL_TOL
        assert table.v1[0] <= DEFAULT_TAIL_TOL
        assert table.v2[-1] > 0  # modeled decay, not a hard zero

    def test_positivity(self, table):
        assert np.all(table.v1 > 0)
        assert np.all(table.v2 > 0)

    def test_slope_regression(self, table):
        assert abs(table.asymptotics.A - A_PINNED) < 1e-9
        assert abs(table.asymptotics.B - B_PINNED) < 1e-9

    def test_slope_against_quadrupled_resolution(self, table):
        # finer grids have a larger fp floor for the divided residual,
        # hence the looser newton_tol on the reference run
        fine = solve_profile(T=16.0, N=25601, newton_tol=1e-8)
        rel = abs(table.asymptotics.A - fine.asymptotics.A) / fine.asymptotics.A
        assert rel <= 1e-6

    def test_slope_stable_under_domain_length(self, table):
        wide = solve_profile(T=16.0, N=6401, newton_tol=1e-10)  # same h
        assert abs(table.asymptotics.A - wide.asymptotics.A) <= 1e-8

    def test_second_order_grid_refinement(self):
        sols = [solve_profile(T=12.0, N=n, newton_tol=1e-9)
                for n in (1201, 2401, 4801)]
        diffs = []
        for coarse, fine in zip(sols, sols[1:]):
            shared = fine.v1[::2]
            diffs.append(np.max(np.abs(coarse.v1 - shared)))
        ratio = diffs[0] / diffs[1]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("N", [2001, 4001])
    def test_damped_phase_runs_to_the_floor(self, N):
        # at T = 20 the damped steps lower the residual by only ~6% each
        # (9.73 -> 9.14 -> 8.60): Newton must keep going, not stop there
        p = solve_profile(T=20.0, N=N, newton_tol=1e-9)
        assert discrete_residual(p) <= 1e-9

    def test_no_newton_step_retried(self, monkeypatch):
        # a rejected step leaves the iterate unchanged, so the next step
        # would be the same one: Newton stops at the first rejected step
        rhs = []
        gbsv = profile.gbsv

        def recording_gbsv(kl, ku, band, b):
            rhs.append(np.array(b, copy=True))
            return gbsv(kl, ku, band, b)

        monkeypatch.setattr(profile, "gbsv", recording_gbsv)
        solve_profile()
        assert len(rhs) >= 2
        for prev, cur in zip(rhs, rhs[1:]):
            assert not np.array_equal(prev, cur)

    @pytest.mark.parametrize("T, N", [(16.0, 801), (18.0, 801), (20.0, 801),
                                      (24.0, 1601), (24.0, 2001)])
    def test_coarse_grid_edge_keeps_dv1_positive(self, T, N):
        # a one-sided stencil across the modeled tail gave dv1 < 0 at x = -T
        # here (-3.6e-110 at T = 16); the model's own derivative keeps its sign
        p = solve_profile(T=T, N=N, newton_tol=1e-9)
        assert np.all(p.dv1 > 0)

    def test_edge_derivatives_are_the_tail_models(self, table, monkeypatch):
        # the default table, with dv2 at its last two nodes the derivative
        # -(a x + b) v2 of the model _model_tail wrote there, with its (a, b)
        fits = []
        model_tail = profile._model_tail

        def recording(x, v2, a, b):
            fits.append((a, b))
            return model_tail(x, v2, a, b)

        monkeypatch.setattr(profile, "_model_tail", recording)
        p = solve_profile()
        assert np.array_equal(p.dv2, table.dv2) and np.array_equal(p.dv1, table.dv1)
        (a, b), = fits
        assert np.array_equal(p.dv2[-2:], -(a * p.nodes[-2:] + b) * p.v2[-2:])
        assert np.array_equal(p.dv1[:2], -p.dv2[:-3:-1])

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(NoConvergence):
            solve_profile(T=12.0, N=1201, newton_tol=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_profile(T=6.0, N=4801)
        with pytest.raises(ValueError):
            solve_profile(T=12.0, N=4800)
        with pytest.raises(ValueError):
            solve_profile(T=12.0, N=4801, newton_tol=-1.0)
        # NaN fails every comparison, so it must be rejected explicitly
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="T must"):
                solve_profile(T=bad, N=4801)
            with pytest.raises(ValueError, match="newton_tol"):
                solve_profile(T=12.0, N=4801, newton_tol=bad)


class TestAsymptotics:
    def test_wide_window(self, table):
        a = extract_asymptotics(table, (6.0, 12.0))
        assert a.A > 0
        assert a.fit_residual <= 1e-8

    def test_disjoint_windows_agree(self, table):
        a1 = extract_asymptotics(table, (6.0, 9.0))
        a2 = extract_asymptotics(table, (9.0, 12.0))
        assert abs(a1.A - a2.A) / a2.A <= 1e-6

    def test_stored_fit_is_tail_consistent(self, table):
        assert table.asymptotics.fit_residual <= 10.0 * DEFAULT_TAIL_TOL

    def test_exact_affine_input_recovered(self, table):
        v1 = 2.0 * table.nodes + 3.0
        fake = ProfileTable(
            half_length=table.half_length,
            nodes=table.nodes,
            v1=v1,
            v2=np.zeros_like(v1),
            dv1=np.full_like(v1, 2.0),
            dv2=np.zeros_like(v1),
            asymptotics=AsymptoticConstants(2.0, 3.0, math.inf, 0.0),
            newton_tol=1e-10,
        )
        a = extract_asymptotics(fake, (6.0, 12.0))
        assert abs(a.A - 2.0) <= 1e-12
        assert abs(a.B - 3.0) <= 1e-12
        assert a.fit_residual <= 1e-12
        assert a.c_fit == math.inf

    def test_deviation_decays_monotonically_to_noise(self, table):
        a = extract_asymptotics(table, (6.0, 12.0))
        sel = (table.nodes >= 7.0) & (table.nodes <= 12.0)
        dev = np.abs(table.v1[sel] - (a.A * table.nodes[sel] + a.B))
        ok = (dev[1:] <= dev[:-1]) | (dev[1:] <= 1e-13)
        assert np.all(ok)

    def test_diagnostic_decay_rate(self, table, monkeypatch):
        # the quasi-Gaussian remainder is resolvable only where the dying
        # component is still above round-off, which forces a contaminated
        # window; the rate is a diagnostic, not a sharp constant
        monkeypatch.setattr(profile, "DEFAULT_TAIL_TOL", 1e-4)
        a = extract_asymptotics(table, (3.0, 4.4))
        assert math.isfinite(a.c_fit)
        assert a.c_fit > 0

    def test_window_errors(self, table):
        with pytest.raises(WindowTooContaminated):
            extract_asymptotics(table, (1.0, 3.0))
        with pytest.raises(DegenerateFit):
            extract_asymptotics(table, (11.99, 12.0))
        with pytest.raises(ValueError):
            extract_asymptotics(table, (6.0, 13.0))


class TestEval:
    def test_nodes_reproduced_exactly(self, table):
        idx = [0, 17, center(table), 3000, table.n_nodes - 1]
        for j in idx:
            v1, dv1, v2, dv2 = eval_profile(table, table.nodes[j])
            assert v1 == table.v1[j]
            assert dv1 == table.dv1[j]
            assert v2 == table.v2[j]
            assert dv2 == table.dv2[j]

    def test_affine_tail_extension(self, table):
        a = table.asymptotics
        v1, dv1, v2, dv2 = eval_profile(table, table.half_length + 5.0)
        assert v2 == 0.0 and dv2 == 0.0
        assert dv1 == a.A
        assert v1 == a.A * (table.half_length + 5.0) + a.B
        v1, dv1, v2, dv2 = eval_profile(table, -(table.half_length + 5.0))
        assert v1 == 0.0 and dv1 == 0.0
        assert dv2 == -a.A

    def test_mirror_identity_random_points(self, table):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-15.0, 15.0, 100)
        left = eval_profile(table, -xs)
        right = eval_profile(table, xs)
        assert np.max(np.abs(left[0] - right[2])) <= 1e-12
        assert np.max(np.abs(left[1] + right[3])) <= 1e-12

    def test_continuity_across_seam(self, table):
        T = table.half_length
        a = table.asymptotics
        inside = eval_profile(table, T)
        assert abs(inside[0] - (a.A * T + a.B)) <= DEFAULT_TAIL_TOL
        assert abs(inside[2]) <= DEFAULT_TAIL_TOL


def v1_text(p):
    """The retired text cache layout: header, metadata, N rows of %.17g."""
    a = p.asymptotics
    lines = ["segkernel-profile v1",
             f"{p.half_length:.17g} {p.n_nodes} {p.newton_tol:.17g} "
             f"{a.A:.17g} {a.B:.17g} {a.c_fit:.17g}"]
    lines += [" ".join(f"{v:.17g}" for v in row)
              for row in zip(p.nodes, p.v1, p.dv1, p.v2, p.dv2)]
    return ("\n".join(lines) + "\n").encode()


def head_length(data):
    """Bytes of the two text lines in front of the float64 payload."""
    return data.index(b"\n", data.index(b"\n") + 1) + 1


def nan_in_dv2(full):
    """dv2 (column 4) of the middle row (600 of 1201) set to NaN."""
    at = head_length(full) + 40 * 600 + 8 * 4
    return full[:at] + struct.pack("<d", math.nan) + full[at + 8:]


def nan_in_a(full):
    """The header's A, which would otherwise pass the refit check, set to nan."""
    lines = full.split(b"\n", 2)
    meta = lines[1].split()
    assert meta[5] == b"inf"        # c_fit: inf is not a corruption
    meta[3] = b"nan"
    return b"\n".join([lines[0], b" ".join(meta), lines[2]])


class TestCache:
    def get(self, tmp_path):
        return get_profile(T=12.0, N=1201, newton_tol=1e-9, cache_dir=str(tmp_path))

    def assert_rewritten(self, tmp_path, damaged, match=None, raises=ValueError):
        """A damaged cache file does not load, and get_profile solves the
        table again and rewrites the file bit for bit."""
        first = self.get(tmp_path)
        (path,) = tmp_path.iterdir()
        full = path.read_bytes()
        path.write_bytes(damaged(full))
        with pytest.raises(raises, match=match):
            load_profile(path)
        again = self.get(tmp_path)
        for name in ("nodes", "v1", "v2", "dv1", "dv2"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.asymptotics.A == first.asymptotics.A
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == full

    def test_round_trip_exact(self, table, tmp_path):
        path = tmp_path / "profile.bin"
        save_profile(table, path)
        loaded = load_profile(path)
        for name in ("nodes", "v1", "v2", "dv1", "dv2"):
            assert np.array_equal(getattr(loaded, name), getattr(table, name))
            assert getattr(loaded, name).flags.writeable
        assert loaded.asymptotics.A == table.asymptotics.A
        assert loaded.asymptotics.B == table.asymptotics.B
        assert loaded.asymptotics.c_fit == table.asymptotics.c_fit

    def test_cache_bytes_match_per_value_format(self, table, tmp_path):
        # two text lines, then each row's five values as little-endian doubles
        path = tmp_path / "profile.bin"
        save_profile(table, path)
        a = table.asymptotics
        head = (f"segkernel-profile v2\n{table.half_length:.17g} {table.n_nodes} "
                f"{table.newton_tol:.17g} {a.A:.17g} {a.B:.17g} {a.c_fit:.17g}\n")
        assert CACHE_HEADER == "segkernel-profile v2"
        rows = zip(table.nodes, table.v1, table.dv1, table.v2, table.dv2)
        payload = b"".join(struct.pack("<5d", *row) for row in rows)
        assert len(payload) == 40 * table.n_nodes
        assert path.read_bytes() == head.encode() + payload

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a cache\n1 2 3\n")
        with pytest.raises(ValueError):
            load_profile(path)

    def test_get_profile_reuses_cache(self, tmp_path):
        first = get_profile(T=12.0, N=1201, newton_tol=1e-9, cache_dir=str(tmp_path))
        files = os.listdir(tmp_path)
        assert len(files) == 1
        second = get_profile(T=12.0, N=1201, newton_tol=1e-9, cache_dir=str(tmp_path))
        assert np.array_equal(first.v1, second.v1)

    def test_rounded_file_name_never_serves_other_parameters(self, tmp_path):
        get_profile(T=12.0, N=1201, newton_tol=1e-9, cache_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        before = path.read_bytes()
        near = get_profile(T=12.0000001, N=1201, newton_tol=1e-9,
                           cache_dir=str(tmp_path))
        assert near.half_length == 12.0000001
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_truncated_cache_is_rewritten(self, tmp_path):
        # cuts mid-metadata-line, mid-payload, and one whole row short
        for damaged in (lambda full: full[:30], lambda full: full[:len(full) // 2],
                        lambda full: full[:-40]):
            self.assert_rewritten(tmp_path, damaged)

    def test_extra_byte_cache_is_rewritten(self, tmp_path):
        self.assert_rewritten(tmp_path, lambda full: full + b"\0", match="bytes")

    @pytest.mark.parametrize("damaged", [nan_in_dv2, nan_in_a], ids=["dv2", "A"])
    def test_non_finite_cache_is_rewritten(self, tmp_path, damaged):
        self.assert_rewritten(tmp_path, damaged, match="non-finite")

    def test_contaminated_window_cache_is_rewritten(self, tmp_path):
        # v2 at x = 10, inside the fit window, no longer negligible
        def damaged(full):
            at = head_length(full) + 40 * 1100 + 8 * 3
            return full[:at] + struct.pack("<d", 1e-3) + full[at + 8:]
        self.assert_rewritten(tmp_path, damaged, raises=WindowTooContaminated)

    def test_unmirrored_cache_is_rewritten(self, tmp_path):
        # dv1 at x = 0 (column 2 of the middle row) set to 5.0: the values,
        # the fit window and A are untouched, but dv1(0) = -dv2(0) fails
        def damaged(full):
            at = head_length(full) + 40 * 600 + 8 * 2
            return full[:at] + struct.pack("<d", 5.0) + full[at + 8:]
        self.assert_rewritten(tmp_path, damaged, match="mirror exact")
        assert self.get(tmp_path).dv1[600] == 1.5100500962672718

    def test_v1_text_file_at_v2_path_not_served(self, tmp_path):
        # the retired text layout under the new name is a miss, not a table
        first = self.get(tmp_path)
        self.assert_rewritten(tmp_path, lambda full: v1_text(first), match="header")

    def test_stale_v1_text_file_left_alone(self, tmp_path):
        table = solve_profile(T=12.0, N=1201, newton_tol=1e-9)
        stale = tmp_path / "profile_T12_N1201_tol1e-09.txt"
        stale.write_bytes(v1_text(table))
        again = self.get(tmp_path)
        assert np.array_equal(again.v1, table.v1)
        assert sorted(os.listdir(tmp_path)) == [
            "profile_T12_N1201_tol1e-09.bin", "profile_T12_N1201_tol1e-09.txt"]
        assert stale.read_bytes() == v1_text(table)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGKERNEL_CACHE", str(tmp_path))
        get_profile(T=12.0, N=1201, newton_tol=1e-9)
        assert os.listdir(tmp_path) == ["profile_T12_N1201_tol1e-09.bin"]

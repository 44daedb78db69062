import pytest

import simplex_asm.bench as bench_mod
from simplex_asm import SparseMatrix
from simplex_asm.bench import (
    BenchConfig,
    BenchRecord,
    aux_memory_bytes,
    emit_table,
    run_bench,
)

CSV_HEADER = "variant,matrix,d,ndof,nme,time_mean_s,time_median_s,aux_bytes,speedup"


def config(**kw):
    base = dict(matrix="stiffness", d=2, variants=("optv2", "optv"),
                refinements=(2, 4), reps=3, mode="time")
    base.update(kw)
    return BenchConfig(**base)


def test_config_validation():
    config().validate()
    with pytest.raises(ValueError):
        config(matrix="advection").validate()
    with pytest.raises(ValueError):
        config(d=4).validate()
    with pytest.raises(ValueError):
        config(matrix="elastic", d=1).validate()
    with pytest.raises(ValueError):
        config(reps=2).validate()
    with pytest.raises(ValueError):
        config(mode="profile").validate()
    with pytest.raises(ValueError):
        config(refinements=()).validate()
    with pytest.raises(ValueError):
        config(matrix="mass-pk", variants=("optv",)).validate()
    with pytest.raises(ValueError):
        config(matrix="elastic", variants=("optv1",)).validate()
    with pytest.raises(ValueError):
        config(variants=()).validate()


def test_aux_memory_accounting():
    # three full-length arrays versus three per-step rows
    assert aux_memory_bytes("optv2", 12, 100) == 3 * 144 * 100 * 8
    assert aux_memory_bytes("optv1", 12, 100) == 3 * 144 * 100 * 8
    assert aux_memory_bytes("optv", 12, 100) == 3 * 100 * 8
    assert aux_memory_bytes("optvs", 12, 100) == 3 * 100 * 8
    assert aux_memory_bytes("base", 12, 100) == 144 * 8
    ratio = aux_memory_bytes("optv2", 12, 100) / aux_memory_bytes("optv", 12, 100)
    assert ratio == 144  # (d+1)^2 m^2 for the 3D elastic case
    with pytest.raises(ValueError):
        aux_memory_bytes("optv9", 12, 100)


def test_time_mode_records():
    result = run_bench(config(variants=("optv2", "optv", "optvs")))
    assert result.ok
    assert len(result.records) == 6
    for rec in result.records:
        assert rec.time_median_s > 0
        assert rec.time_min_s <= rec.time_median_s <= rec.time_max_s
        assert rec.aux_bytes > 0
    # optvs is the speedup reference
    for rec in result.records:
        if rec.variant == "optvs":
            assert rec.speedup == 1.0
    # slopes attach from the second refinement on
    later = [r for r in result.records if r.ndof == 25]
    assert all(r.slope is not None for r in later)
    assert any("slope" in m for m in result.messages)


def test_time_mode_speedup_reference_without_optvs():
    result = run_bench(config(variants=("optv2", "optv"), refinements=(3,)))
    slowest = max(result.records, key=lambda r: r.time_median_s)
    assert slowest.speedup == 1.0


@pytest.mark.parametrize("matrix", bench_mod.MATRICES)
def test_verify_mode_passes(matrix):
    result = run_bench(config(matrix=matrix, k=2 if matrix == "mass-pk" else 1,
                              mode="verify",
                              variants=bench_mod.VARIANTS_FOR[matrix]))
    assert result.ok
    assert any(m.startswith("verify") for m in result.messages)


def test_verify_mode_detects_corruption(monkeypatch):
    orig = bench_mod._Problem.assemble

    def corrupted(self, ctx, variant):
        out = orig(self, ctx, variant)
        if variant == "optv":
            return SparseMatrix(out.nrows, out.ncols, out.row_ptr,
                                out.col_idx, out.vals * (1 + 1e-6))
        return out

    monkeypatch.setattr(bench_mod._Problem, "assemble", corrupted)
    result = run_bench(config(mode="verify"))
    assert not result.ok
    assert any(m.startswith("FAIL") for m in result.messages)


def test_memory_mode_elastic_ratio():
    result = run_bench(config(matrix="elastic", d=3, mode="memory",
                              variants=("optv2", "optv"), refinements=(2,)))
    assert result.ok
    ratio_lines = [m for m in result.messages if "ratio" in m]
    assert ratio_lines and "144" in ratio_lines[0]
    by_variant = {r.variant: r.aux_bytes for r in result.records}
    assert by_variant["optv2"] / by_variant["optv"] == 144


def test_mass_pk_bench_runs():
    result = run_bench(config(matrix="mass-pk", k=2, variants=("optv2",),
                              refinements=(2,)))
    assert result.ok
    assert result.records[0].ndof > 0


# ---------------------------------------------------------------------------
# Table emission


def test_emit_table_empty():
    assert emit_table([]) == CSV_HEADER + "\n"


def test_emit_table_single_record():
    rec = BenchRecord("optvs", "stiffness", 2, 100, 50,
                      0.0123, 0.0121, 4096, 1.0)
    text = emit_table([rec])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1] == "optvs,stiffness,2,100,50,0.0123,0.0121,4096,1.00"


def test_emit_table_markdown():
    recs = [BenchRecord("optv", "mass", 2, 100, 50, 0.02, 0.02, 1, 1.53),
            BenchRecord("optvs", "mass", 2, 100, 50, 0.013, 0.013, 1, 1.0)]
    text = emit_table(recs, "md")
    assert "| ndof |" in text
    assert "0.02 (s)<br>x 1.53" in text


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_table([], "tex")

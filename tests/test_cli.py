import pytest

import simplex_asm.bench as bench_mod
from simplex_asm import (
    ElasticKernel,
    MassKernel,
    SparseMatrix,
    StiffnessKernel,
    assemble_optvs,
    assemble_vector_optvs,
    generate_hypercube_mesh,
    max_abs_diff,
    read_matrixmarket,
    write_mesh,
)
from simplex_asm.cli import main


@pytest.fixture
def square_mesh_file(tmp_path):
    path = tmp_path / "square.mesh"
    write_mesh(generate_hypercube_mesh(2, 3), path)
    return path


def test_assemble_stiffness_roundtrip(square_mesh_file, tmp_path, capsys):
    out = tmp_path / "stiff.mtx"
    code = main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "stiffness", "--variant", "optvs",
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    mesh = generate_hypercube_mesh(2, 3)
    want = assemble_optvs(mesh, StiffnessKernel(mesh))
    assert max_abs_diff(read_matrixmarket(out), want) == 0.0


def test_assemble_mass_and_elastic(square_mesh_file, tmp_path):
    mesh = generate_hypercube_mesh(2, 3)

    out = tmp_path / "mass.mtx"
    assert main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "mass", "--out", str(out)]) == 0
    assert max_abs_diff(read_matrixmarket(out),
                        assemble_optvs(mesh, MassKernel(mesh))) == 0.0

    out = tmp_path / "elas.mtx"
    assert main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "elastic", "--out", str(out)]) == 0
    assert max_abs_diff(read_matrixmarket(out),
                        assemble_vector_optvs(mesh, ElasticKernel(mesh))) == 0.0


def test_assemble_mass_pk(square_mesh_file, tmp_path):
    out = tmp_path / "pk.mtx"
    code = main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "mass-pk", "--order", "2",
                 "--variant", "optv2", "--out", str(out)])
    assert code == 0
    mat = read_matrixmarket(out)
    assert mat.vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_assemble_mass_pk_default_variant(square_mesh_file, tmp_path):
    out = tmp_path / "pk.mtx"
    assert main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "mass-pk", "--order", "2", "--out", str(out)]) == 0
    explicit = tmp_path / "pk_optv2.mtx"
    assert main(["assemble", "--mesh", str(square_mesh_file),
                 "--matrix", "mass-pk", "--order", "2", "--variant", "optv2",
                 "--out", str(explicit)]) == 0
    assert out.read_text() == explicit.read_text()


def test_assemble_missing_mesh_file(tmp_path):
    code = main(["assemble", "--mesh", str(tmp_path / "nope.mesh"),
                 "--matrix", "mass", "--out", str(tmp_path / "m.mtx")])
    assert code == 1


def test_bench_verify_exit_codes(tmp_path, capsys, monkeypatch):
    args = ["bench", "--matrix", "stiffness", "--dim", "2",
            "--variants", "optv2,optv", "--refine", "2,3",
            "--mode", "verify", "--reps", "3"]
    assert main(args) == 0
    capsys.readouterr()

    orig = bench_mod._Problem.assemble

    def corrupted(self, ctx, variant):
        out = orig(self, ctx, variant)
        if variant == "optv":
            return SparseMatrix(out.nrows, out.ncols, out.row_ptr,
                                out.col_idx, out.vals * (1 + 1e-6))
        return out

    monkeypatch.setattr(bench_mod._Problem, "assemble", corrupted)
    assert main(args) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["bench", "--matrix", "mass", "--dim", "1",
                 "--variants", "optv2,optvs", "--refine", "4,8",
                 "--reps", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("variant,matrix,d,ndof,nme,"
                        "time_mean_s,time_median_s,aux_bytes,speedup")
    assert len(lines) == 5


def test_bench_mass_pk_default_variants(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["bench", "--matrix", "mass-pk", "--dim", "2", "--order", "2",
                 "--refine", "2", "--reps", "3", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["optv2"]


def test_bench_markdown_to_stdout(capsys):
    code = main(["bench", "--matrix", "mass", "--dim", "1",
                 "--variants", "optvs", "--refine", "4",
                 "--reps", "3", "--format", "md"])
    assert code == 0
    assert "| ndof |" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--matrix", "heat", "--dim", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--matrix", "elastic", "--dim", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--matrix", "stiffness", "--dim", "2",
              "--variants", "optv9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--matrix", "stiffness", "--dim", "2", "--refine", "8,x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["assemble", "--matrix", "mass-pk", "--mesh", "x",
              "--variant", "optv", "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["assemble", "--matrix", "elastic", "--mesh", "x",
              "--variant", "optv1", "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # --order is the lattice order of mass-pk; no other matrix reads it
    for argv in (["assemble", "--matrix", "stiffness", "--mesh", "x",
                  "--order", "3", "--out", "y"],
                 ["bench", "--matrix", "mass", "--dim", "2", "--order", "4"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--order" in err and "mass-pk" in err

"""End-to-end command line behavior: verdicts, JSON, exit codes."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import locaut
import locaut.cli
from locaut.cli import main
from locaut.exact import InternalCheckError
from locaut.leibniz import BlockMap
from locaut.linalg import Matrix
from locaut.sln import MnModel, SlnModel


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def transpose_file(tmp_path, n=2):
    model = SlnModel(n)
    return write_json(tmp_path, f"transpose{n}.json", model.transpose_map().to_json())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- classify-sln -----------------------------------------------------------


def test_classify_sln_text(tmp_path, capsys):
    path = transpose_file(tmp_path)
    code, out, _ = run(capsys, ["classify-sln", "--n", "2", "--map", path])
    assert code == 0
    assert out.splitlines()[0] == "verdict: AntiAutomorphism"


def test_classify_sln_json(tmp_path, capsys):
    path = transpose_file(tmp_path)
    code, out, _ = run(capsys, ["classify-sln", "--n", "2", "--map", path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "AntiAutomorphism"
    assert data["shape"]["sigma"] == "transpose"
    assert data["obstruction"] is None


def test_classify_sln_not_local_exit_zero(tmp_path, capsys):
    model = SlnModel(2)
    path = write_json(tmp_path, "double.json", model.scalar_map(2).to_json())
    code, out, _ = run(capsys, ["classify-sln", "--n", "2", "--map", path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NotLocal"
    assert data["obstruction"]["kind"] == "lambda_not_unit"
    assert data["obstruction"]["lambda"] == "2"


def test_classify_sln_json_deterministic(tmp_path, capsys):
    path = transpose_file(tmp_path, 3)
    _, out1, _ = run(capsys, ["classify-sln", "--n", "3", "--map", path, "--json"])
    _, out2, _ = run(capsys, ["classify-sln", "--n", "3", "--map", path, "--json"])
    assert out1 == out2


def test_classify_sln_wrong_size(tmp_path, capsys):
    path = write_json(tmp_path, "small.json", Matrix.identity(2).to_json())
    code, _, err = run(capsys, ["classify-sln", "--n", "2", "--map", path])
    assert code == 2
    assert "expected a 3x3 matrix" in err


def test_classify_sln_missing_file(capsys):
    code, _, err = run(capsys, ["classify-sln", "--n", "2", "--map", "/nonexistent.json"])
    assert code == 2
    assert "cannot read" in err


def test_classify_sln_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, ["classify-sln", "--n", "2", "--map", str(p)])
    assert code == 2
    assert "not valid JSON" in err


# -- classify-mn ------------------------------------------------------------


def test_classify_mn_transpose(tmp_path, capsys):
    model = MnModel(2)
    path = write_json(tmp_path, "mnT.json", model.map_matrix(lambda x: x.T).to_json())
    code, out, _ = run(capsys, ["classify-mn", "--n", "2", "--map", path, "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "AntiAutomorphism"


def test_classify_mn_scaling(tmp_path, capsys):
    model = MnModel(2)
    path = write_json(tmp_path, "mn2.json", model.map_matrix(lambda x: x + x).to_json())
    code, out, _ = run(capsys, ["classify-mn", "--n", "2", "--map", path, "--json"])
    assert code == 0
    assert json.loads(out)["obstruction"]["kind"] == "identity_not_fixed"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_classify_mn_rejects_non_positive_n(tmp_path, capsys, n):
    path = write_json(tmp_path, "one.json", Matrix.identity(1).to_json())
    code, out, err = run(capsys, ["classify-mn", "--n", n, "--map", path])
    assert (code, out, err) == (2, "", "error: M_n needs n >= 1\n")


@pytest.mark.parametrize(
    "data, message",
    [
        ([[1]], 'scalar must be a string such as "1/2+3*i", got 1'),
        ([1], "matrix must be a JSON list of rows"),
        (5, "matrix must be a JSON list of rows"),
    ],
    ids=["number_entry", "flat_list", "number"],
)
def test_malformed_matrix_file(tmp_path, capsys, data, message):
    path = write_json(tmp_path, "bad.json", data)
    code, out, err = run(capsys, ["classify-mn", "--n", "1", "--map", path])
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# -- witness ----------------------------------------------------------------


def test_witness_at_nilpotent(tmp_path, capsys):
    model = SlnModel(2)
    dpath = transpose_file(tmp_path)
    xpath = write_json(tmp_path, "e12.json", model.e(0, 1).to_json())
    code, out, _ = run(capsys, ["witness", "--n", "2", "--map", dpath, "--at", xpath])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon: 1"
    assert lines[1] == "sigma: identity"
    assert json.loads(lines[2].split("conjugator: ")[1]) == [["0", "1"], ["1", "0"]]


def test_witness_json_found(tmp_path, capsys):
    model = SlnModel(2)
    dpath = transpose_file(tmp_path)
    xpath = write_json(tmp_path, "e12.json", model.e(0, 1).to_json())
    code, out, _ = run(capsys, ["witness", "--n", "2", "--map", dpath, "--at", xpath, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    assert data["shape"]["epsilon"] == 1


def test_witness_not_found(tmp_path, capsys):
    model = SlnModel(2)
    dpath = write_json(tmp_path, "double.json", model.scalar_map(2).to_json())
    xpath = write_json(tmp_path, "h1.json", model.h(0).to_json())
    code, out, _ = run(capsys, ["witness", "--n", "2", "--map", dpath, "--at", xpath, "--json"])
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_witness_rejects_trace(tmp_path, capsys):
    dpath = transpose_file(tmp_path)
    xpath = write_json(tmp_path, "one.json", Matrix.identity(2).to_json())
    code, _, err = run(capsys, ["witness", "--n", "2", "--map", dpath, "--at", xpath])
    assert code == 2
    assert "traceless" in err


# -- leibniz-build ----------------------------------------------------------


def test_leibniz_build_summary(capsys):
    code, out, _ = run(capsys, ["leibniz-build", "--n", "2", "--module", "vm:2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert (data["dim"], data["dim_s"], data["dim_i"]) == (6, 3, 3)
    assert data["simple"] is True
    assert data["algebra"]["dim"] == 6


def test_leibniz_build_with_extension(tmp_path, capsys):
    path = write_json(tmp_path, "id3.json", Matrix.identity(3).to_json())
    code, out, _ = run(
        capsys,
        ["leibniz-build", "--n", "2", "--module", "vm:2", "--map", path, "--omega", "1", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["extension"] is not None
    bm = BlockMap.from_json(data["extension"])
    assert not bm.coupling.is_zero()


def test_leibniz_build_non_extendable(tmp_path, capsys):
    model = SlnModel(3)
    path = write_json(tmp_path, "negT.json", model.map_matrix(lambda x: -(x.T)).to_json())
    code, out, _ = run(
        capsys,
        ["leibniz-build", "--n", "3", "--module", "natural", "--map", path, "--json"],
    )
    assert code == 0
    assert json.loads(out)["extension"] is None


@pytest.mark.parametrize("omega, message", [("1+2", "repeated real part"), ("*i", "bad scalar term")])
def test_leibniz_build_rejects_a_malformed_omega(tmp_path, capsys, omega, message):
    path = write_json(tmp_path, "conjugation2.json", Matrix.identity(3).to_json())
    code, out, err = run(
        capsys, ["leibniz-build", "--n", "2", "--module", "vm:2", "--map", path, "--omega", omega]
    )
    assert (code, out) == (2, "")
    assert message in err


def test_leibniz_build_bad_module(capsys):
    code, _, err = run(capsys, ["leibniz-build", "--n", "3", "--module", "vm:2"])
    assert code == 2
    assert "sl_2" in err


@pytest.mark.parametrize("module", ["vm:x", "vm:", "vm:1.5", "vm:1_0", "vm: 3", "vm:+2", "vm:\u0663", "vm:-1"])
def test_leibniz_build_malformed_vm_module(capsys, module):
    code, out, err = run(capsys, ["leibniz-build", "--n", "2", "--module", module])
    assert (code, out) == (2, "")
    assert "vm:<m>" in err and "int()" not in err


def test_leibniz_build_rejects_anti_s_map(tmp_path, capsys):
    path = transpose_file(tmp_path)
    code, _, err = run(
        capsys, ["leibniz-build", "--n", "2", "--module", "vm:2", "--map", path]
    )
    assert code == 2
    assert "not an automorphism" in err


# -- leibniz-decide ---------------------------------------------------------


def block_map_file(tmp_path, name, s, si, i):
    return write_json(tmp_path, name, {"s": s.to_json(), "si": si.to_json(), "i": i.to_json()})


def test_leibniz_decide_local(tmp_path, capsys):
    path = block_map_file(
        tmp_path, "ident.json", Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3)
    )
    code, out, _ = run(
        capsys, ["leibniz-decide", "--n", "2", "--module", "vm:2", "--map", path, "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"verdict": "LocalAutomorphism", "certificate": None}


def test_leibniz_decide_not_local(tmp_path, capsys):
    model = SlnModel(2)
    path = block_map_file(
        tmp_path, "trans.json", model.transpose_map(), Matrix.zeros(3, 3), Matrix.identity(3)
    )
    code, out, _ = run(
        capsys, ["leibniz-decide", "--n", "2", "--module", "vm:2", "--map", path, "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NotLocal"
    assert data["certificate"]["kind"] == "bracket_square"


def test_leibniz_decide_size_mismatch(tmp_path, capsys):
    path = block_map_file(
        tmp_path, "small.json", Matrix.identity(2), Matrix.zeros(2, 2), Matrix.identity(2)
    )
    code, _, err = run(
        capsys, ["leibniz-decide", "--n", "2", "--module", "vm:2", "--map", path]
    )
    assert code == 2
    assert "block sizes" in err


@pytest.mark.parametrize(
    "blocks, message",
    [
        # S-block 2x2 against dim S = 3; coupling matches its columns
        ((Matrix.identity(2), Matrix.zeros(3, 2), Matrix.identity(3)),
         "block sizes do not match the algebra"),
        # 3x2 I-block
        ((Matrix.identity(3), Matrix.zeros(3, 3), Matrix.zeros(3, 2)),
         "block sizes do not match the algebra"),
        # coupling with 2 rows against a 3x3 I-block
        ((Matrix.identity(3), Matrix.zeros(2, 3), Matrix.identity(3)),
         "{path}: block shapes are inconsistent"),
    ],
    ids=["s_block_size", "i_block_not_square", "coupling_inconsistent"],
)
def test_leibniz_decide_block_errors(tmp_path, capsys, blocks, message):
    """Exact stderr and exit code for malformed block maps."""
    path = block_map_file(tmp_path, "bad.json", *blocks)
    code, out, err = run(
        capsys, ["leibniz-decide", "--n", "2", "--module", "vm:2", "--map", path]
    )
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], 'block map must be a JSON object with keys "s", "si", "i"'),
        ({"s": [["1"]], "i": [["1"]]}, "block map is missing 'si'"),
    ],
    ids=["list", "no_si"],
)
def test_leibniz_decide_malformed_map(tmp_path, capsys, data, message):
    path = write_json(tmp_path, "bad.json", data)
    code, out, err = run(
        capsys, ["leibniz-decide", "--n", "2", "--module", "vm:2", "--map", path]
    )
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# -- filiform-demo ----------------------------------------------------------


def test_filiform_demo(capsys):
    code, out, _ = run(
        capsys, ["filiform-demo", "--n", "4", "--samples", "24", "--seed", "7", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["delta_is_automorphism"] is False
    assert data["samples"] == 24
    assert data["all_verified"] is True
    counts = data["witness_counts"]
    assert counts["phi"] + counts["psi"] == 24


def test_filiform_demo_deterministic(capsys):
    argv = ["filiform-demo", "--n", "5", "--samples", "16", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_filiform_demo_rejects_non_positive_samples(capsys, samples):
    code, out, err = run(capsys, ["filiform-demo", "--n", "4", "--samples", samples])
    assert code == 2
    assert out == ""
    assert "--samples must be positive" in err


# -- selfcheck --------------------------------------------------------------


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, ["selfcheck"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 20240817"
    passes = [ln for ln in lines if ln.startswith("PASS")]
    assert len(passes) == 10
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "failures: 0"


def test_selfcheck_json(capsys):
    code, out, _ = run(capsys, ["selfcheck", "--json", "--seed", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5
    assert data["failures"] == 0
    assert all(c["status"] == "PASS" for c in data["checks"])


# -- internal checks ---------------------------------------------------------


def test_no_assert_statements_in_package():
    """python -O strips asserts, so no check in the package may be one."""
    found = []
    for path in sorted(Path(locaut.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_imports(path: Path):
    """Names an import binds that the module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    """Every import in the package, the tests and the scripts is used; the
    package __init__ re-exports by design."""
    here = Path(__file__).parent
    paths = sorted(Path(locaut.__file__).parent.glob("*.py")) + sorted(here.glob("*.py"))
    paths += sorted((here.parent / "scripts").glob("*.py"))
    found = [u for p in paths if p.name != "__init__.py" for u in _unused_imports(p)]
    assert found == []


def _identifiers(tree):
    """Every name and attribute that the tree reads."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(tree)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _package_definitions():
    """Each module-level function or class of the package with its file, and
    the identifiers the package reads outside each one's own definition."""
    defined = {}
    read = set()
    for path in sorted(Path(locaut.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            names = _identifiers(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                defined[node.name] = path.name
            read |= names
    return defined, read


def test_no_unreferenced_private_definitions():
    """Every module-level function or class in the package whose name starts
    with an underscore is read outside its own definition, so a deletion
    leaves no orphan helper behind."""
    defined, read = _package_definitions()
    orphans = [f"{where}: {name}" for name, where in defined.items()
               if name.startswith("_") and name not in read]
    assert orphans == []


def test_no_public_definitions_that_only_tests_reach():
    """Every public module-level function or class in the package is read by
    the package outside its own definition, exported from it, or read by a
    script or the benchmark.  The benchmark reaches names through strings as
    well (the traced layer paths), so the words of its strings count."""
    defined, read = _package_definitions()
    read |= set(locaut.__all__)
    root = Path(__file__).parent.parent
    for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read |= _identifiers(tree)
        if path.parent.name == "perfbench":
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read |= set(re.findall(r"\w+", sub.value))
    orphans = [f"{where}: {name}" for name, where in defined.items()
               if not name.startswith("_") and name not in read]
    assert orphans == []


@pytest.mark.parametrize("command", ["classify-sln", "leibniz-decide"])
def test_non_input_error_while_parsing_propagates(tmp_path, monkeypatch, command):
    # only ValueError means unusable input; any other error is a bug and
    # must not be reported as exit 2
    def broken(data):
        raise RuntimeError("parser bug")

    monkeypatch.setattr(Matrix, "from_json", broken)
    path = write_json(tmp_path, "map.json", {"s": [["1"]], "si": [["0"]], "i": [["1"]]})
    argv = ["--n", "2", "--map", path] + (["--module", "vm:2"] if command == "leibniz-decide" else [])
    with pytest.raises(RuntimeError, match="parser bug"):
        main([command] + argv)


def test_internal_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    def broken(model, d):
        raise InternalCheckError("fitted shape does not reproduce the map")

    monkeypatch.setattr(locaut.cli, "classify_sln", broken)
    code, out, err = run(capsys, ["classify-sln", "--n", "2", "--map", transpose_file(tmp_path)])
    assert code == 3
    assert out == ""
    assert err == "internal error: fitted shape does not reproduce the map\n"
    assert not issubclass(InternalCheckError, ValueError)


# -- process-level checks ---------------------------------------------------


def test_console_script_bytes_identical(tmp_path):
    model = SlnModel(2)
    path = write_json(tmp_path, "neg.json", model.scalar_map(-1).to_json())
    argv = [sys.executable, "-c",
            "import sys; from locaut.cli import main; sys.exit(main(sys.argv[1:]))",
            "classify-sln", "--n", "2", "--map", path, "--json"]
    r1 = subprocess.run(argv, capture_output=True)
    r2 = subprocess.run(argv, capture_output=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert json.loads(r1.stdout)["verdict"] == "AntiAutomorphism"


def test_unknown_command_exits_2():
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; from locaut.cli import main; sys.exit(main(sys.argv[1:]))",
         "frobnicate"],
        capture_output=True,
    )
    assert r.returncode == 2

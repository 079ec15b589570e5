"""CLI smoke tests (repro-cc)."""

import json
from pathlib import Path

import pytest

from repro.cli import main


SOURCE = """
class Hello {
    static void main() {
        int total = 0;
        for (int i = 0; i < 5; i++) total += i;
        System.out.println("total=" + total);
    }
}
"""


@pytest.fixture
def java_file(tmp_path):
    path = tmp_path / "Hello.java"
    path.write_text(SOURCE)
    return str(path)


def test_compile_and_verify(java_file, tmp_path, capsys):
    out = str(tmp_path / "Hello.stsa")
    assert main(["compile", java_file, "-o", out, "--optimize"]) == 0
    assert main(["verify", out]) == 0
    captured = capsys.readouterr().out
    assert "OK" in captured


def test_run_source(java_file, capsys):
    assert main(["run", java_file]) == 0
    assert capsys.readouterr().out == "total=10\n"


def test_run_compiled(java_file, tmp_path, capsys):
    out = str(tmp_path / "Hello.stsa")
    main(["compile", java_file, "-o", out])
    capsys.readouterr()
    assert main(["run", out]) == 0
    assert capsys.readouterr().out == "total=10\n"


def test_run_exit_code_on_exception(tmp_path, capsys):
    path = tmp_path / "Boom.java"
    path.write_text("class Boom { static void main() "
                    "{ int z = 0; int x = 1 / z; } }")
    assert main(["run", str(path)]) == 1
    assert "ArithmeticException" in capsys.readouterr().err


def test_disasm(java_file, capsys):
    assert main(["disasm", java_file]) == 0
    out = capsys.readouterr().out
    assert "function Hello.main()" in out
    assert "phi" in out or "primitive" in out


def test_verify_rejects_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.stsa"
    path.write_bytes(b"STSA1" + b"\xff" * 32)
    assert main(["verify", str(path)]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_stats(java_file, capsys):
    assert main(["stats", java_file]) == 0
    out = capsys.readouterr().out
    assert "file size" in out and "Null-Checks" in out


@pytest.mark.parametrize("command", ["compile", "run", "disasm", "stats"])
@pytest.mark.parametrize("body, where", [
    ("int x = ;", ":3:17: unexpected token"),
    ("int x = 0x;", ":3:17: hex literal without digits"),
])
def test_source_error_is_one_line_not_a_traceback(tmp_path, capsys,
                                                  command, body, where):
    path = tmp_path / "Broken.java"
    path.write_text(f"class Broken {{\n    static void main() {{\n"
                    f"        {body}\n    }}\n}}\n")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"{path}{where}")


ATTACKS_DIR = Path(__file__).parent / "golden" / "attacks"


def _attack_fixtures():
    return sorted(json.loads((ATTACKS_DIR / "manifest.json").read_text()))


@pytest.mark.parametrize("command", ["run", "disasm"])
@pytest.mark.parametrize("fixture", _attack_fixtures())
def test_rejected_wire_file_is_one_line_not_a_traceback(capsys, command,
                                                        fixture):
    from repro.encode.deserializer import DecodeError
    from repro.loader import load_module
    from repro.tsa.verifier import VerifyError
    path = ATTACKS_DIR / f"{fixture}.bin"
    with pytest.raises((DecodeError, VerifyError)) as caught:
        load_module(path.read_bytes())
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("REJECTED: ")
    assert err.strip().endswith(f"[{caught.value.code}]")

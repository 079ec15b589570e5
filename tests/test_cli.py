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


def test_bench_runs_every_runner_entry(tmp_path, monkeypatch, capsys):
    from repro.bench import runner
    ran = []
    for name, bench in runner.BENCHES.items():
        monkeypatch.setitem(runner.BENCHES, name, bench._replace(
            report=lambda name=name: ran.append(name) or {},
            full={}, render=lambda report: "", guards=()))
    monkeypatch.chdir(tmp_path)
    for name in runner.BENCHES:
        assert main(["bench", name]) == 0
    assert ran == list(runner.BENCHES)
    assert main(["bench", "nope"]) == 2
    assert "trace" in capsys.readouterr().out


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


@pytest.mark.parametrize("trace", [[], ["--trace=1"]], ids=["interp",
                                                          "trace"])
@pytest.mark.parametrize("source, flags, line", [
    ("class Main { static void main() { int i = 0;"
     " while (true) { i = i + 1; } } }", ["--max-steps", "1000"],
     "StepLimitExceeded: exceeded 1000 steps in Main.main()"),
    ("class Main { static int down(int n) { if (n == 0) return 0;"
     " return 1 + down(n - 1); }"
     " static void main() { System.out.println(down(5000)); } }", [],
     "StackDepthExceeded: call stack too deep running Main.main()"),
], ids=["steps", "stack"])
def test_a_bounded_run_is_one_line_not_a_traceback(tmp_path, capsys,
                                                   source, flags, line,
                                                   trace):
    path = tmp_path / "Main.java"
    path.write_text(source)
    assert main(["run", str(path), *flags, *trace]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [line]


@pytest.mark.parametrize("trace", [[], ["--trace=1"]], ids=["interp",
                                                          "trace"])
def test_a_clinit_exception_is_a_java_exception(tmp_path, capsys, trace):
    path = tmp_path / "Main.java"
    path.write_text("class Main { static int[] a = new int[2];"
                    " static int x = a[5];"
                    " static void main() { System.out.println(x); } }")
    assert main(["run", str(path), *trace]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        'Exception in thread "main" java.lang.ArrayIndexOutOfBoundsException']


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


class TestFetchRun:
    """``fetch --run`` loads a wire-format v2 unit whose shared
    dictionary lives on the server it was fetched from."""

    def test_runs_a_shared_dictionary_module(self, serve_client, tmp_path,
                                             capsys):
        from repro.bench.corpus import corpus_source
        source = corpus_source("BitSieve")
        batch = serve_client.publish_batch(
            [{"name": "sieve", "source": source},
             {"name": "sieve-opt", "source": source, "optimize": True}],
            wire_v2=True)
        assert batch["dictionaries"]  # the batch factored a dictionary
        path = tmp_path / "BitSieve.java"
        path.write_text(source)
        assert main(["run", str(path)]) == 0
        local = capsys.readouterr().out
        url = f"http://127.0.0.1:{serve_client.port}"
        for entry in batch["published"]:
            assert main(["fetch", entry["digest"], "--url", url,
                         "--run"]) == 0
            captured = capsys.readouterr()
            assert captured.out == local
            assert captured.err == ""

    def test_a_dictionary_the_server_lacks_still_rejects(self,
                                                         serve_client):
        from repro.encode.deserializer import DecodeError
        from repro.loader import load_module
        # a full v2 envelope naming a dictionary no store holds
        data = (ATTACKS_DIR / "50be96083f184395.bin").read_bytes()
        with pytest.raises(DecodeError) as caught:
            load_module(data, store=serve_client.dictionary_store())
        assert caught.value.code == "DEC-DICT"

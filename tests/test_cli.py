import json

import pytest

from padicref.cli import main


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _body(out: str) -> bytes:
    doc = json.loads(out)
    return json.dumps(doc["body"], sort_keys=True, separators=(",", ":")).encode()


class TestRejectedInput:
    @pytest.mark.parametrize("argv, env", [
        (["run", "--family-degree", "0"], {}),
        (["run"], {"PADICREF_P": "abc"}),
        (["enumerate", "--p", "4"], {}),
        (["run", "--samples", "-5"], {}),
        (["zeta", "--beta", "3"], {}),
    ], ids=["family-degree-0", "env-p-not-int", "enumerate-non-prime",
            "negative-samples", "zeta-beta-3"])
    def test_config_error_exit_two(self, argv, env, monkeypatch, capsys):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "config"
        assert doc["message"]


class TestAcceptedInput:
    def test_list(self, capsys):
        code, out, err = _run(["list"], capsys)
        assert code == 0
        assert "spin-enum:" in out and err == ""

    def test_run_one_suite(self, capsys):
        code, out, err = _run(["run", "--suites", "spin-enum"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert body["ok"] and body["failed"] == 0
        assert [s["name"] for s in body["suites"]] == ["spin-enum"]

    def test_body_is_deterministic(self, capsys):
        argv = ["run", "--suites", "cell-support,spin-enum", "--samples", "8",
                "--seed", "7"]
        first = _run(argv, capsys)
        second = _run(argv, capsys)
        assert first[0] == second[0] == 0
        assert _body(first[1]) == _body(second[1])

    def test_suite_samples_do_not_depend_on_the_suite_list(self, capsys):
        alone = _run(["run", "--suites", "cell-support", "--samples", "8",
                      "--seed", "7"], capsys)
        mixed = _run(["run", "--suites", "spin-enum,cell-support",
                      "--samples", "8", "--seed", "7"], capsys)
        suites = {s["name"]: s for s in json.loads(mixed[1])["body"]["suites"]}
        assert json.loads(alone[1])["body"]["suites"] == [suites["cell-support"]]

import json

import pytest

from coevomarket.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf8")
    return str(path)


def session_doc(**kw):
    doc = {
        "duration": 400,
        "roster": [
            {"count": 3, "prefix": "B", "side": "Bid", "strategy": "ZIC"},
            {"count": 3, "prefix": "S", "side": "Ask", "strategy": "ZIC"},
        ],
        "schedules": [
            {"side": "Bid", "p_min": 100, "p_max": 200, "interval": 100},
            {"side": "Ask", "p_min": 50, "p_max": 150, "interval": 100},
        ],
    }
    doc.update(kw)
    return doc


def adaptive_session_doc(**kw):
    doc = session_doc(**kw)
    doc["roster"] = [
        {"id": "AB", "side": "Bid", "strategy": "PRZI_SHC(0.0,nt=2)"},
        {"id": "B1", "side": "Bid", "strategy": "ZIC"},
        {"id": "AS", "side": "Ask", "strategy": "PRZI_SHC(0.0,nt=2)"},
        {"id": "S1", "side": "Ask", "strategy": "ZIC"},
    ]
    return doc


def quiver_doc(**kw):
    doc = {"grid_res": 3, "horizon": 60, "reps": 1, "seed": 5,
           "session": adaptive_session_doc(duration=60)}
    doc.update(kw)
    return doc


def stgp_doc(**kw):
    doc = {
        "generations": 2,
        "seed_genome": "(S,LIMIT,10)",
        "seed": 9,
        "session": {
            "duration": 200,
            "roster": [
                {"count": 4, "prefix": "G", "side": "Bid",
                 "strategy": "STGP"},
                {"count": 4, "prefix": "S", "side": "Ask",
                 "strategy": "ZIC"},
            ],
            "schedules": [
                {"side": "Bid", "p_min": 100, "p_max": 200, "interval": 50},
                {"side": "Ask", "p_min": 50, "p_max": 150, "interval": 50},
            ],
        },
    }
    doc.update(kw)
    return doc


# -------------------------------------------------------------------- session


def test_session_writes_tape_and_profits(tmp_path):
    config = write_config(tmp_path, session_doc(seed=3))
    out = tmp_path / "run1"
    assert main(["session", "--config", config, "--out", str(out)]) == 0
    tape = (out / "tape.csv").read_text(encoding="utf8")
    profits = (out / "profits.csv").read_text(encoding="utf8")
    assert tape.splitlines()[0] == "time,price,buyer_id,seller_id,qty"
    lines = profits.splitlines()
    assert lines[0] == "trader_id,side,profit"
    assert len(lines) == 7
    assert lines[1].startswith("B000,Bid,")


def test_session_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path, session_doc(seed=12))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["session", "--config", config, "--out", str(out_a)]) == 0
    assert main(["session", "--config", config, "--out", str(out_b)]) == 0
    for name in ("tape.csv", "profits.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_overrides_document(tmp_path):
    config = write_config(tmp_path, session_doc(seed=12))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["session", "--config", config, "--out", str(out_a), "--seed", "1"])
    main(["session", "--config", config, "--out", str(out_b), "--seed", "2"])
    assert (out_a / "tape.csv").read_bytes() != (out_b / "tape.csv").read_bytes()


# --------------------------------------------------------------------- errors


def test_missing_config_fails_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["session", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_fails(tmp_path):
    config = write_config(tmp_path, session_doc(volume="loud"))
    assert main(["session", "--config", config, "--out", str(tmp_path)]) == 1


def test_invalid_roster_fails(tmp_path):
    doc = session_doc()
    doc["roster"] = doc["roster"][:1]  # one-sided market
    config = write_config(tmp_path, doc)
    assert main(["session", "--config", config, "--out", str(tmp_path)]) == 1


def test_unwritable_out_path_returns_io_error(tmp_path, capsys):
    config = write_config(tmp_path, session_doc())
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory", encoding="utf8")
    code = main(["session", "--config", config, "--out", str(blocker)])
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def _with_roster_field(key, value):
    doc = session_doc()
    doc["roster"][0][key] = value
    return doc


def _with_schedule_field(key, value):
    doc = session_doc()
    doc["schedules"][0][key] = value
    return doc


@pytest.mark.parametrize("command, doc", [
    ("quiver", quiver_doc(grid_res="5")),
    ("quiver", quiver_doc(reps=2.0)),
    ("session", session_doc(seed="42")),
    ("session", _with_roster_field("count", 2.0)),
    ("session", session_doc(sys_max="500")),
    ("session", _with_schedule_field("p_min", 100.5)),
    ("stgp", stgp_doc(generations="3")),
    ("stgp", stgp_doc(const_pool=[1, "7"])),
], ids=["quiver-grid_res-str", "quiver-reps-float", "session-seed-str",
        "roster-count-float", "session-sys_max-str", "schedule-p_min-float",
        "stgp-generations-str", "stgp-const_pool-str"])
def test_mistyped_config_value_is_a_one_line_error(command, doc, tmp_path,
                                                   capsys):
    config = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --------------------------------------------------------------------- quiver


def test_quiver_writes_one_row_per_grid_point(tmp_path):
    config = write_config(tmp_path, quiver_doc())
    out = tmp_path / "q"
    assert main(["quiver", "--config", config, "--out", str(out)]) == 0
    lines = (out / "quiver.csv").read_text(encoding="utf8").splitlines()
    assert lines[0] == "s_b,s_s,d_sb,d_ss,magnitude,reps"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert first[0] == "-1.0" and first[1] == "-1.0"
    assert first[5] == "1"


def test_quiver_requires_session_template(tmp_path):
    config = write_config(tmp_path, {"grid_res": 3})
    assert main(["quiver", "--config", config, "--out", str(tmp_path)]) == 1


def test_quiver_rejects_multiple_adaptive_buyers(tmp_path):
    session = adaptive_session_doc(duration=60)
    session["roster"][1] = {"id": "B1", "side": "Bid",
                            "strategy": "PRZI_SHC(0.1)"}
    config = write_config(tmp_path, {"horizon": 60, "session": session})
    assert main(["quiver", "--config", config, "--out", str(tmp_path)]) == 1


# ------------------------------------------------------------------- coevolve


def test_coevolve_writes_log_matrix_and_metrics(tmp_path):
    doc = {"eps_frac": 0.2,
           "session": adaptive_session_doc(duration=400, log_interval=50,
                                           seed=4)}
    config = write_config(tmp_path, doc)
    out = tmp_path / "c"
    assert main(["coevolve", "--config", config, "--out", str(out)]) == 0
    strategies = (out / "strategies.csv").read_text(encoding="utf8").splitlines()
    assert strategies[0] == "time,AB,AS"
    assert len(strategies) == 1 + 8
    assert strategies[1].split(",")[0] == "0"
    pbm = (out / "recurrence.pbm").read_text(encoding="utf8")
    assert pbm.startswith("P1\n8 8\n")
    rqa = (out / "rqa.csv").read_text(encoding="utf8").splitlines()
    assert rqa[0] == "RR,DET,LAM,L_mean,L_max,ENT"
    assert len(rqa) == 2


def test_coevolve_needs_adaptive_traders(tmp_path):
    config = write_config(tmp_path, {"session": session_doc()})
    assert main(["coevolve", "--config", config, "--out", str(tmp_path)]) == 1


# ----------------------------------------------------------------------- stgp


def test_stgp_writes_genstats_and_elites(tmp_path):
    config = write_config(tmp_path, stgp_doc())
    out = tmp_path / "g"
    assert main(["stgp", "--config", config, "--out", str(out)]) == 0
    stats = (out / "genstats.csv").read_text(encoding="utf8").splitlines()
    assert stats[0] == "gen,max_fitness,mean_fitness,std_fitness,mean_size"
    assert len(stats) == 3
    assert stats[1].split(",")[0] == "1"
    elites = (out / "elites.txt").read_text(encoding="utf8").splitlines()
    assert len(elites) == 2
    for line in elites:
        assert line.startswith("gen=")
        assert " fitness=" in line


def test_stgp_requires_seed_genome(tmp_path):
    doc = stgp_doc()
    del doc["seed_genome"]
    config = write_config(tmp_path, doc)
    assert main(["stgp", "--config", config, "--out", str(tmp_path)]) == 1


def test_stgp_rejects_malformed_genome(tmp_path):
    config = write_config(tmp_path, stgp_doc(seed_genome="(S,LIMIT"))
    assert main(["stgp", "--config", config, "--out", str(tmp_path)]) == 1

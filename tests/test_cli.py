"""Command-line behavior: parsing, file outputs, reproducibility, exits."""

import hashlib
import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ggelab import ldp_lab
from ggelab.cli import (_build_parsers, _write_csv, _write_json, load_config,
                        main, parse_potential)


def read_csv(path):
    """Split a CLI CSV into comment lines, header columns, data rows."""
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return comments, header, rows


class TestPotentialSyntax:
    def test_torus(self):
        v = parse_potential("c0=0.5,c2=1.0,s1=-0.25")
        assert v.domain == "torus"
        assert v.cos.tolist() == [0.5, 0.0, 1.0]
        assert v.sin.tolist() == [-0.25]

    def test_interval(self):
        v = parse_potential("t0=0.1,t3=2.0")
        assert v.domain == "interval"
        assert v.cheb.tolist() == [0.1, 0.0, 0.0, 2.0]

    def test_empty_is_none(self):
        assert parse_potential(None) is None
        assert parse_potential("  ") is None
        assert parse_potential("none") is None

    def test_errors(self):
        with pytest.raises(ValueError, match="mix"):
            parse_potential("c1=1,t1=1")
        with pytest.raises(ValueError, match="key"):
            parse_potential("q1=1")
        with pytest.raises(ValueError, match="s1"):
            parse_potential("s0=1")
        with pytest.raises(ValueError, match="value"):
            parse_potential("c1=abc")
        with pytest.raises(ValueError, match="key=value"):
            parse_potential("c1")

    @pytest.mark.parametrize("text, key", [
        ("c1=1,c1=2", "c1"), ("c1=1,c01=2", "c1"), ("t1=0.5,t1=0.2", "t1")])
    def test_repeated_coefficient_exits_2_and_writes_nothing(
            self, tmp_path, capsys, text, key):
        with pytest.raises(ValueError, match=f"{key} is given twice"):
            parse_potential(text)
        out = tmp_path / "out"
        assert main(["minimize", "--beta", "1", "--potential", text,
                     "--out", str(out)]) == 2
        assert f"{key} is given twice" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("beta = 2.0\nn=16  # sites\n\n# comment only\nsamples=5\n")
        assert load_config(p) == {"beta": "2.0", "n": "16", "samples": "5"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("beta 2.0\n")
        with pytest.raises(ValueError, match="config line"):
            load_config(p)

    def test_merge_fills_gaps(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("beta=1.0\nn=8\nsamples=4\n")
        code = main(["sample", "--config", str(p), "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "beta=1" in capsys.readouterr().out

    def test_flags_beat_config(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("beta=1.0\nn=8\nsamples=4\n")
        main(["sample", "--config", str(p), "--beta", "3.5", "--seed", "1",
              "--out", str(tmp_path)])
        assert "beta=3.5" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("temperature=1.0\n")
        with pytest.raises(SystemExit):
            main(["sample", "--config", str(p), "--out", str(tmp_path)])


class TestConfigChecks:
    """Config values go through the subcommand's parser, like flags."""

    @pytest.mark.parametrize("command,line", [
        (["minimize", "--beta", "1"], "domain = sphere"),
        (["sample", "--beta", "1"], "format = xml"),
        (["dynamics"], "init = bogus"),
        (["dos", "--beta", "1"], "bins = 2.5"),
        (["sample", "--beta", "1"], "angles = maybe"),
        (["sample", "--beta", "1"], "sam = 5"),
        (["sample", "--beta", "1"], "config = other.cfg"),
        (["sample", "--beta", "1"], "help = true"),
        (["verify"], "check = bogus"),
    ])
    def test_bad_value_or_key_is_usage_error(self, tmp_path, command, line):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(p), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--beta", "1", "--config",
                  str(tmp_path / "absent.cfg")])
        assert exc.value.code == 2

    def test_flag_beats_bad_config_value(self, tmp_path):
        # the config token is parsed too, so a bad one is caught even when
        # a flag overrides it
        p = tmp_path / "run.cfg"
        p.write_text("format = xml\n")
        with pytest.raises(SystemExit):
            main(["sample", "--beta", "1", "--config", str(p),
                  "--format", "json", "--out", str(tmp_path)])

    def test_config_supplies_required_beta(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("beta = 2\nn = 6\nsamples = 2\n")
        assert main(["free-energy", "--config", str(p), "--seed", "1",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("word,written", [("yes", True), ("off", False)])
    def test_stored_true_flag_words(self, tmp_path, word, written):
        p = tmp_path / "run.cfg"
        p.write_text(f"beta = 1\nn = 6\nsamples = 2\nangles = {word}\n")
        assert main(["sample", "--config", str(p), "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "angles.csv").exists() is written


class TestHelpDefaults:
    @pytest.mark.parametrize("command,defaults", [
        ("sample", {"--ensemble": "al", "--n": "32", "--samples": "100",
                    "--out": ".", "--format": "csv"}),
        ("dos", {"--ensemble": "al", "--n": "64", "--samples": "200",
                 "--bins": "64", "--k-max": "16"}),
        ("relation", {"--ensemble": "al", "--n": "64", "--samples": "500",
                      "--threshold": "0.02", "--k-max": "16"}),
        ("dynamics", {"--flow": "al", "--n": "32", "--dt": "0.001",
                      "--t-final": "1.0", "--frames": "256",
                      "--init": "random", "--rmax": "0.3"}),
        ("free-energy", {"--ensemble": "al", "--n": "32", "--samples": "200"}),
        ("minimize", {"--grid-size": "1024", "--tolerance": "1e-10",
                      "--max-iterations": "20000"}),
    ])
    def test_help_shows_defaults(self, capsys, command, defaults):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split()).partition("options:")[2]
        for flag, value in defaults.items():
            pattern = (rf"{flag} \S+ (?:(?!--).)*?"
                       rf"\(default:? {re.escape(value)}[,)]")
            assert re.search(pattern, out), f"{flag} default {value}"
        assert "(default: None)" not in out


def _as_config(argv, path):
    """Move every flag after the subcommand of argv into a config file."""
    lines, i = [], 1
    while i < len(argv):
        key = argv[i][2:]
        if key == "angles":
            lines.append("angles = true")
            i += 1
        else:
            lines.append(f"{key} = {argv[i + 1]}")
            i += 2
    path.write_text("\n".join(lines) + "\n")
    return [argv[0], "--config", str(path)]


# fixed-seed runs with the config hash their outputs carry; the hashes were
# recorded before config files went through argparse and must not move.  The
# three minimize hashes were re-recorded when the --damping flag left: the
# hash covers every option of the subcommand.  minimize_interval ran at
# --damping 0.7 before; at the one damping, 0.5, its file equals the old
# code's bytes at --damping 0.5 except for the hash line.
_RUNS = {
    "sample": (["sample", "--ensemble", "schur", "--n", "6", "--beta", "2",
                "--samples", "4", "--seed", "3", "--angles"], "634cc84c8cad"),
    "sample_json": (["sample", "--ensemble", "circular", "--n", "6", "--beta",
                     "2", "--samples", "4", "--seed", "3", "--potential",
                     "c1=0.5", "--format", "json", "--burn-in", "5",
                     "--thinning", "2"], "cf14dba3a5b6"),
    "sample_defaults": (["sample", "--beta", "1", "--seed", "0"],
                        "51ce3e0dc843"),
    "dos": (["dos", "--ensemble", "al", "--n", "8", "--beta", "1", "--samples",
             "10", "--bins", "8", "--k-max", "4", "--seed", "5"],
            "82e07fdffc43"),
    "dos_defaults": (["dos", "--beta", "1", "--seed", "5", "--samples", "5"],
                     "8828fd87cd8d"),
    "minimize": (["minimize", "--beta", "1", "--potential", "c1=0.5",
                  "--grid-size", "64", "--seed", "2"], "b3654cfaff49"),
    "minimize_interval": (["minimize", "--beta", "1", "--domain", "interval",
                           "--potential", "t1=0.3", "--tolerance", "1e-9",
                           "--max-iterations", "500", "--grid-size", "128",
                           "--format", "json", "--seed", "2"],
                          "8a0bd815036b"),
    "minimize_defaults": (["minimize", "--beta", "2", "--seed", "2"],
                          "16dcc94a5d4c"),
    "relation": (["relation", "--ensemble", "al", "--n", "8", "--beta", "1",
                  "--samples", "20", "--threshold", "0.5", "--k-max", "4",
                  "--seed", "4"], "1c8c85da29d5"),
    "dynamics": (["dynamics", "--flow", "al", "--n", "6", "--dt", "0.01",
                  "--t-final", "0.1", "--frames", "5", "--seed", "6"],
                 "f291c2db57f4"),
    "dynamics_schur": (["dynamics", "--flow", "schur", "--n", "6", "--dt",
                        "0.01", "--t-final", "0.1", "--init", "constant",
                        "--rmax", "0.2", "--seed", "6"], "9656a7fe678b"),
    "dynamics_defaults": (["dynamics", "--seed", "1", "--t-final", "0.01"],
                          "274b9b3dd116"),
    "verify": (["verify", "--check", "coupling", "--seed", "7"],
               "14faea3d5806"),
    "free_energy": (["free-energy", "--ensemble", "al", "--n", "8", "--beta",
                     "1", "--potential", "c1=0.5", "--samples", "5",
                     "--s-grid", "0,0.5,1", "--seed", "8"], "9ed82b655a35"),
    "free_energy_defaults": (["free-energy", "--beta", "1", "--seed", "8"],
                             "d2f7904bdcec"),
}

# sha256 prefixes of the data files of each _RUNS entry, recorded before the
# subcommands shared one emit step; like the config hashes, they must not
# move, and the minimize entries moved with their hashes
_DIGESTS = {
    "dos": {
        "dos_fourier.csv": "80551322ac0d7bed",
        "dos_histogram.csv": "33b433b7b250b79f"},
    "dos_defaults": {
        "dos_fourier.csv": "242702d4e4b7e04e",
        "dos_histogram.csv": "7f13e9b34e038c23"},
    "dynamics": {
        "conservation.json": "ae9da872202828ee",
        "trajectory.csv": "18aeb50c7395aa3a"},
    "dynamics_defaults": {
        "conservation.json": "1daccf23668375fe",
        "trajectory.csv": "f6f39c17cf0c6876"},
    "dynamics_schur": {
        "conservation.json": "ed37371abab3b968",
        "trajectory.csv": "91d8f4398e225359"},
    "free_energy": {"free_energy.json": "de45300609049421"},
    "free_energy_defaults": {"free_energy.json": "a381eec00099ec8f"},
    "minimize": {
        "density.csv": "b9ec4c986e7e4106",
        "minimize.json": "9497799d35792124"},
    "minimize_defaults": {
        "density.csv": "7d1b47d6c0e3b790",
        "minimize.json": "00f2b759fd5490f6"},
    "minimize_interval": {"minimize.json": "1b3ed5eb70633582"},
    "relation": {"relation.json": "97bf63867683a172"},
    "sample": {
        "angles.csv": "51cef93d16e53bbe",
        "samples.csv": "36900346dddaff29"},
    "sample_defaults": {"samples.csv": "db2364d671dcb813"},
    "sample_json": {"samples.json": "b18896dd3ab37722"},
    "verify": {"coupling.json": "65d3f912f68c8ab5"},
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_flags_and_config_write_the_same_bytes(self, tmp_path, name):
        argv, config_hash = _RUNS[name]
        flags, config = tmp_path / "flags", tmp_path / "config"
        assert main(argv + ["--out", str(flags)]) == 0
        cfg_argv = _as_config(argv, tmp_path / "run.cfg")
        assert main(cfg_argv + ["--out", str(config)]) == 0
        names = sorted(os.listdir(flags))
        assert names and names == sorted(os.listdir(config))
        seed = argv[argv.index("--seed") + 1]
        for file in names:
            data = (flags / file).read_bytes()
            assert data == (config / file).read_bytes(), file
            text = data.decode()
            if file.endswith(".csv"):
                assert text.startswith(f"# config_hash={config_hash}\n"
                                       f"# seed={seed}\n")
            else:
                doc = json.loads(text)
                assert (doc["config_hash"], doc["seed"]) == \
                    (config_hash, int(seed))

    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_data_files_match_recorded_digests(self, tmp_path, name):
        # a change that moves the flags run and the config run alike
        assert main(_RUNS[name][0] + ["--out", str(tmp_path)]) == 0
        digests = {file: hashlib.sha256((tmp_path / file).read_bytes())
                   .hexdigest()[:16] for file in os.listdir(tmp_path)}
        assert digests == _DIGESTS[name]


class TestWriters:
    """_write_csv and _write_json write every data file of the lab."""

    @pytest.mark.parametrize("header, rows, expected", [
        (["theta", "weight"], [[-2.0, 0.5], [0.5, 0.5]],
         b"theta,weight\n-2.0,0.5\n0.5,0.5\n"),
        (["x", "weight"], [[0, 0.5], [np.float64(0.5), 0.5]],
         b"x,weight\n0.0,0.5\n0.5,0.5\n"),
    ])
    def test_csv_bytes(self, tmp_path, header, rows, expected):
        cfg = SimpleNamespace(out=str(tmp_path / "out"), hash="abc", seed=3)
        path = _write_csv(cfg, "mu.csv", header, rows)
        assert open(path, "rb").read() == \
            b"# config_hash=abc\n# seed=3\n" + expected

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = SimpleNamespace(out=str(tmp_path), hash="abc", seed=0)
        values = [0.1, 1 / 3, -1e-300, 2.0 ** 53 + 2, np.pi, -0.0]
        _write_csv(cfg, "v.csv", ["v"], [[v] for v in values])
        comments, header, rows = read_csv(tmp_path / "v.csv")
        assert comments == ["# config_hash=abc", "# seed=0"]
        assert header == ["v"]
        assert [r[0] for r in rows] == values
        assert str(rows[-1][0]) == "-0.0"

    def test_json_adds_hash_and_seed(self, tmp_path):
        cfg = SimpleNamespace(out=str(tmp_path), hash="abc", seed=4)
        path = _write_json(cfg, "r.json", {"b": [1.5, 2], "a": None})
        text = open(path).read()
        assert text.endswith("}\n") and "\r" not in text
        assert json.loads(text) == {"a": None, "b": [1.5, 2],
                                    "config_hash": "abc", "seed": 4}
        assert list(json.loads(text)) == ["a", "b", "config_hash", "seed"]


class TestSample:
    def test_csv_output(self, tmp_path):
        code = main(["sample", "--ensemble", "al", "--n", "8", "--beta", "1",
                     "--samples", "5", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        comments, header, rows = read_csv(tmp_path / "samples.csv")
        assert any(c.startswith("# config_hash=") for c in comments)
        assert any(c == "# seed=7" for c in comments)
        assert header[:3] == ["sample", "re_alpha_1", "im_alpha_1"]
        assert len(header) == 1 + 2 * 8
        assert len(rows) == 5

    def test_bit_exact_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--ensemble", "schur", "--n", "12", "--beta", "2",
                "--samples", "10", "--seed", "42"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--ensemble", "al", "--n", "6", "--beta", "1",
                "--samples", "4"]
        main(argv + ["--seed", "9", "--out", str(a)])
        monkeypatch.setenv("GGE_SEED", "9")
        main(argv + ["--out", str(b)])
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()

    def test_blank_seed_env_is_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GGE_SEED", " ")
        assert main(["sample", "--n", "6", "--beta", "1", "--samples", "2",
                     "--out", str(tmp_path)]) == 0
        comments, _, _ = read_csv(tmp_path / "samples.csv")
        assert int(comments[1].partition("=")[2]) >= 0

    def test_bad_seed_env_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GGE_SEED", "abc")
        assert main(["sample", "--n", "6", "--beta", "1", "--samples", "2",
                     "--out", str(tmp_path)]) == 2
        assert "GGE_SEED" in capsys.readouterr().err

    def test_missing_beta_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--ensemble", "al", "--n", "8",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_mcmc_reports_acceptance(self, tmp_path, capsys):
        code = main(["sample", "--ensemble", "circular", "--n", "6",
                     "--beta", "2", "--samples", "20", "--seed", "3",
                     "--potential", "c1=1.0", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "acceptance=" in out and "acceptance=exact" not in out

    @pytest.mark.parametrize("command", ["sample", "dos"])
    @pytest.mark.parametrize("ensemble", ["al", "circular"])
    def test_interval_potential_on_torus_kind_exit(self, tmp_path, capsys,
                                                   command, ensemble):
        code = main([command, "--ensemble", ensemble, "--n", "8", "--beta",
                     "1", "--samples", "5", "--seed", "1", "--potential",
                     "t1=1", "--out", str(tmp_path)])
        assert code == 2
        assert "interval potentials" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_json_format_with_angles(self, tmp_path):
        main(["sample", "--ensemble", "al", "--n", "6", "--beta", "1",
              "--samples", "3", "--seed", "5", "--angles", "--format", "json",
              "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "samples.json").read_text())
        assert doc["seed"] == 5
        assert "config_hash" in doc
        assert np.asarray(doc["alphas_re"]).shape == (3, 6)
        assert np.asarray(doc["angles"]).shape == (3, 6)


class TestDos:
    def test_histogram_mass_and_flatness(self, tmp_path):
        code = main(["dos", "--ensemble", "al", "--n", "32", "--beta", "1",
                     "--samples", "120", "--seed", "3", "--bins", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        _, header, rows = read_csv(tmp_path / "dos_histogram.csv")
        assert header == ["center", "density"]
        centers = np.array([r[0] for r in rows])
        dens = np.array([r[1] for r in rows])
        width = centers[1] - centers[0]
        assert np.sum(dens) * width == pytest.approx(1.0, abs=1e-12)
        # rotation invariance: flat up to 4 sigma of multinomial bin noise
        npts = 120 * 32
        sigma = np.sqrt((1.0 / 16) * (15.0 / 16) / npts) / width
        assert np.max(np.abs(dens - 1.0 / (2.0 * np.pi))) < 4.0 * sigma
        _, fh, frows = read_csv(tmp_path / "dos_fourier.csv")
        assert fh == ["k", "re", "im"]
        assert len(frows) == 16

    def test_interval_kind_json(self, tmp_path):
        code = main(["dos", "--ensemble", "jacobi", "--n", "8", "--beta", "1",
                     "--samples", "40", "--seed", "4", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "dos.json").read_text())
        assert doc["domain"] == "interval"
        mass = np.sum(doc["density"]) * (2.0 / len(doc["density"]))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["dos", "--ensemble", "schur", "--n", "16", "--beta", "1",
                "--samples", "30", "--seed", "11"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert (a / "dos_histogram.csv").read_bytes() == \
            (b / "dos_histogram.csv").read_bytes()


class TestEnsembleConvention:
    """--n is the matrix size and --beta the paper's beta in every
    subcommand."""

    def test_one_help_text_for_n_and_for_beta(self):
        helps = {"--n": set(), "--beta": set()}
        for name, parser in _build_parsers()[1].items():
            for action in parser._actions:
                for flag in set(helps) & set(action.option_strings):
                    # the flow size of dynamics is no ensemble's
                    if (name, flag) != ("dynamics", "--n"):
                        helps[flag].add(action.help)
        assert all(len(texts) == 1 for texts in helps.values()), helps

    def test_jacobi_rows_have_n_coefficients_in_sample_and_free_energy(
            self, tmp_path, monkeypatch):
        assert main(["sample", "--ensemble", "jacobi", "--n", "16", "--beta",
                     "1", "--samples", "2", "--seed", "3", "--format", "json",
                     "--out", str(tmp_path / "sample")]) == 0
        doc = json.loads((tmp_path / "sample" / "samples.json").read_text())
        assert doc["size"] == 16
        assert np.asarray(doc["alphas_re"]).shape == (2, 16)
        rows = []
        sample = ldp_lab._sample

        def spy(spec, mcmc, rng, scales):
            batches = sample(spec, mcmc, rng, scales)
            rows.extend(b.alphas.shape[1] for b in batches)
            return batches

        monkeypatch.setattr(ldp_lab, "_sample", spy)
        assert main(["free-energy", "--ensemble", "jacobi", "--n", "16",
                     "--beta", "1", "--potential", "t1=0.5", "--samples", "2",
                     "--seed", "3", "--out", str(tmp_path / "fe")]) == 0
        assert rows and set(rows) == {16}

    @pytest.mark.parametrize("command", ["sample", "dos"])
    def test_odd_jacobi_size_exits_2(self, tmp_path, capsys, command):
        code = main([command, "--ensemble", "jacobi", "--n", "3", "--beta",
                     "1", "--samples", "2", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "even count" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["sample", "dos"])
    def test_torus_potential_on_schur_exits_2(self, tmp_path, capsys,
                                              command):
        code = main([command, "--ensemble", "schur", "--n", "8", "--beta",
                     "1", "--samples", "2", "--seed", "1", "--potential",
                     "c1=1", "--out", str(tmp_path)])
        assert code == 2
        assert "not torus potentials" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestMinimize:
    def test_zero_potential_uniform(self, tmp_path):
        code = main(["minimize", "--beta", "1", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "minimize.json").read_text())
        assert doc["free_energy"]["total"] == pytest.approx(np.log(2.0), abs=1e-8)
        _, header, rows = read_csv(tmp_path / "density.csv")
        assert header == ["node", "density", "weight"]
        vals = np.array([r[1] for r in rows])
        assert np.max(np.abs(vals - 1.0 / (2.0 * np.pi))) < 1e-10

    def test_interval_json(self, tmp_path):
        code = main(["minimize", "--beta", "1", "--domain", "interval",
                     "--potential", "t1=0.4", "--format", "json",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "minimize.json").read_text())
        assert doc["residual"] < 1e-6
        assert len(doc["nodes"]) == len(doc["density"])

    def test_convergence_failure_exit(self, tmp_path, capsys):
        code = main(["minimize", "--beta", "8", "--potential", "c1=3.0",
                     "--max-iterations", "5", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "converge" in err

    def test_interval_budget_of_one_iteration_exits_1(self, tmp_path, capsys):
        code = main(["minimize", "--beta", "1", "--domain", "interval",
                     "--max-iterations", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "converge" in capsys.readouterr().err
        assert not (tmp_path / "minimize.json").exists()

    def test_potential_off_the_domain_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["minimize", "--beta", "1", "--domain", "torus",
                     "--potential", "t1=0.4", "--out", str(out)])
        assert code == 2
        assert "does not match" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_damping_is_no_option(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("damping = 0.5\n")
        out = tmp_path / "out"
        for extra, error in ((["--damping", "0.5"], "unrecognized arguments"),
                             (["--config", str(p)], "unknown config key")):
            with pytest.raises(SystemExit) as exc:
                main(["minimize", "--beta", "1", "--out", str(out)] + extra)
            assert exc.value.code == 2
            assert error in capsys.readouterr().err
        assert not out.exists()

    def test_solver_flags_have_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["minimize", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for phrase in ("--grid-size GRID_SIZE grid nodes",
                       "--tolerance TOLERANCE stop once the largest damped step",
                       "--max-iterations MAX_ITERATIONS iteration budget"):
            assert phrase in out


class TestOneSample:
    """A run that keeps one state per chain has no standard error, so
    free-energy and relation refuse it where it enters."""

    @pytest.mark.parametrize("command", [
        ["free-energy", "--potential", "c1=0.5"], ["relation"]],
        ids=["free-energy", "relation"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(command + ["--ensemble", "al", "--beta", "1", "--n", "8",
                               "--samples", "1", "--seed", "3",
                               "--out", str(out)]) == 2
        assert "two samples" in capsys.readouterr().err
        assert not out.exists()


class TestRelation:
    def test_al_report(self, tmp_path, capsys):
        code = main(["relation", "--ensemble", "al", "--beta", "1",
                     "--n", "32", "--samples", "400", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "relation.json").read_text())
        assert doc["pass"] is True
        assert doc["seed"] == 5
        assert doc["parameters"]["ensemble"] == "al"
        assert "pass" in capsys.readouterr().out

    def test_threshold_override(self, tmp_path):
        code = main(["relation", "--ensemble", "al", "--beta", "1",
                     "--n", "16", "--samples", "100", "--seed", "6",
                     "--threshold", "1e-9", "--out", str(tmp_path)])
        assert code == 1
        doc = json.loads((tmp_path / "relation.json").read_text())
        assert doc["parameters"]["threshold"] == 1e-9
        assert doc["pass"] is False

    def test_k_max_past_its_bound_exits_2_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        # a ring of 8 sites at k_max = 511 was once killed for its memory
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled with a k_max past its bound")
        monkeypatch.setattr(ldp_lab, "sample_ensemble", no_sampling)
        out = tmp_path / "out"
        assert main(["relation", "--ensemble", "al", "--beta", "1",
                     "--n", "8", "--k-max", "511", "--samples", "5",
                     "--seed", "3", "--out", str(out)]) == 2
        assert "k_max must be at most 64, got 511" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_is_no_option(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("delta = 0.1\n")
        out = tmp_path / "out"
        for extra in (["--delta", "0.1"], ["--config", str(p)]):
            with pytest.raises(SystemExit) as exc:
                main(["relation", "--beta", "1", "--out", str(out)] + extra)
            assert exc.value.code == 2
        assert not out.exists()


class TestNonFiniteInput:
    """beta, the solver tolerance, the relation threshold and the potential
    coefficients are checked where they enter."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--ensemble", "schur", "--beta", "inf"],
        ["sample", "--beta", "nan"],
        ["minimize", "--beta", "nan"],
        ["minimize", "--beta", "inf"],
        ["minimize", "--beta", "1", "--tolerance", "nan",
         "--max-iterations", "50"],
        ["minimize", "--beta", "1", "--tolerance", "inf"],
        ["relation", "--beta", "inf", "--n", "8", "--samples", "5"],
        ["relation", "--beta", "1", "--threshold", "nan", "--n", "8",
         "--samples", "5"],
        ["relation", "--beta", "1", "--threshold", "-1", "--n", "8",
         "--samples", "5"],
        ["free-energy", "--beta", "inf", "--potential", "c1=0.5", "--n", "8",
         "--samples", "5"],
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["sample", "--n", "8", "--samples", "5"], ["minimize"],
        ["relation", "--n", "8", "--samples", "5"],
        ["free-energy", "--n", "8", "--samples", "5"]],
        ids=["sample", "minimize", "relation", "free-energy"])
    def test_non_finite_potential_exits_2_and_writes_nothing(
            self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        assert main(command + ["--beta", "1", "--potential", f"c1={value}",
                               "--seed", "1", "--out", str(out)]) == 2
        assert "coefficients must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestDynamics:
    def test_trajectory_and_conservation(self, tmp_path):
        code = main(["dynamics", "--flow", "al", "--n", "12", "--dt", "0.01",
                     "--t-final", "0.5", "--seed", "6", "--out", str(tmp_path)])
        assert code == 0
        comments, header, rows = read_csv(tmp_path / "trajectory.csv")
        assert any(c == "# seed=6" for c in comments)
        assert header[:3] == ["t", "re_alpha_1", "im_alpha_1"]
        doc = json.loads((tmp_path / "conservation.json").read_text())
        assert doc["flow"] == "al"
        assert max(doc["drifts"].values()) < 1e-6
        assert doc["lax_residual"] < 1e-4

    def test_json_format_writes_the_trajectory_as_json(self, tmp_path):
        argv = ["dynamics", "--flow", "al", "--n", "6", "--dt", "0.01",
                "--t-final", "0.1", "--frames", "5", "--seed", "6"]
        assert main(argv + ["--out", str(tmp_path / "csv")]) == 0
        assert main(argv + ["--format", "json",
                            "--out", str(tmp_path / "json")]) == 0
        assert sorted(os.listdir(tmp_path / "json")) == [
            "conservation.json", "trajectory.json"]
        doc = json.loads((tmp_path / "json" / "trajectory.json").read_text())
        assert doc["seed"] == 6 and "config_hash" in doc
        _, _, rows = read_csv(tmp_path / "csv" / "trajectory.csv")
        rows = np.array(rows)
        assert doc["t"] == rows[:, 0].tolist()
        assert doc["alphas_re"] == rows[:, 1::2].tolist()
        assert doc["alphas_im"] == rows[:, 2::2].tolist()

    def test_zero_data_zero_drift(self, tmp_path):
        main(["dynamics", "--flow", "schur", "--n", "8", "--dt", "0.05",
              "--t-final", "0.2", "--init", "constant", "--rmax", "0.0",
              "--seed", "1", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "conservation.json").read_text())
        assert max(doc["drifts"].values()) == 0.0

    def test_four_site_ring(self, tmp_path):
        code = main(["dynamics", "--n", "4", "--dt", "0.01", "--t-final",
                     "0.1", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "conservation.json").read_text())
        assert doc["lax_residual"] < 1e-4

    def test_odd_ring_rejected_before_integration(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["dynamics", "--n", "3", "--dt", "0.01", "--t-final",
                     "0.1", "--seed", "2", "--out", str(out)])
        assert code == 2
        assert "even size" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flow", ["al", "schur"])
    @pytest.mark.parametrize("init", ["random", "constant"])
    @pytest.mark.parametrize("rmax", ["nan", "inf"])
    def test_non_finite_rmax_rejected_before_integration(
            self, tmp_path, capsys, flow, init, rmax):
        out = tmp_path / "out"
        code = main(["dynamics", "--flow", flow, "--init", init, "--rmax",
                     rmax, "--n", "8", "--seed", "2", "--out", str(out)])
        assert code == 2
        assert "rmax" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_stability_error_exit(self, tmp_path, capsys):
        code = main(["dynamics", "--flow", "al", "--n", "8", "--dt", "3.0",
                     "--t-final", "30", "--init", "constant", "--rmax", "0.98",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "polydisk" in capsys.readouterr().err


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        for name in ("coupling", "exp_moment", "dos_al", "dos_schur",
                     "free_energy_relation"):
            doc = json.loads((tmp_path / f"{name}.json").read_text())
            assert doc["pass"] is True
            assert set(doc) >= {"check", "parameters", "statistics", "pass",
                                "seed", "config_hash"}

    def test_single_check(self, tmp_path, capsys):
        code = main(["verify", "--check", "coupling", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "coupling: PASS"
        assert (tmp_path / "coupling.json").exists()
        assert not (tmp_path / "dos_al.json").exists()

    def test_unknown_check(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "bogus", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_help_lists_checks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name in ("coupling", "exp_moment", "dos_al", "dos_schur",
                     "free_energy_relation"):
            assert name in help_text

    def test_failure_exit(self, tmp_path, capsys, monkeypatch):
        import ggelab.cli as cli
        from ggelab.ldp_lab import CheckReport

        def broken(*a, **kw):
            return CheckReport("coupling_lemma", {}, {}, passed=False)

        monkeypatch.setattr(cli, "check_coupling_lemma", broken)
        code = main(["verify", "--check", "coupling", "--seed", "2",
                     "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "coupling" in captured.err


class TestFreeEnergyCommand:
    def test_zero_potential(self, tmp_path):
        code = main(["free-energy", "--ensemble", "al", "--beta", "1",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "free_energy.json").read_text())
        assert doc["statistics"]["value"] == 0.0
        assert doc["statistics"]["method"] == "ThermoIntegration"

    def test_s_grid_and_potential(self, tmp_path):
        code = main(["free-energy", "--ensemble", "al", "--beta", "1",
                     "--potential", "c1=0.5", "--n", "16", "--samples", "50",
                     "--s-grid", "0,0.5,1", "--seed", "8",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "free_energy.json").read_text())
        assert doc["parameters"]["grid"] == [0.0, 0.5, 1.0]
        assert doc["statistics"]["value"] < 0.0

    @pytest.mark.parametrize("extra", [
        ["--n", "3"], ["--n", "0"], ["--ensemble", "jacobi", "--n", "3"]])
    def test_bad_size_of_a_zero_potential_exits_2(self, tmp_path, capsys,
                                                  extra):
        out = tmp_path / "out"
        assert main(["free-energy", "--beta", "1", "--seed", "1",
                     "--out", str(out)] + extra) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_s_grid_exit(self, tmp_path):
        code = main(["free-energy", "--ensemble", "al", "--beta", "1",
                     "--potential", "c1=0.5", "--s-grid", "0.5,1",
                     "--out", str(tmp_path)])
        assert code == 2


class TestConfigHash:
    def test_stable_and_sensitive(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ["sample", "--ensemble", "al", "--n", "6", "--beta", "1",
                "--samples", "3", "--seed", "1"]
        main(base + ["--out", str(a)])
        main(base + ["--out", str(b)])
        main(["sample", "--ensemble", "al", "--n", "6", "--beta", "2",
              "--samples", "3", "--seed", "1", "--out", str(c)])

        def hash_of(d):
            comments, _, _ = read_csv(d / "samples.csv")
            return [x for x in comments if x.startswith("# config_hash=")][0]

        assert hash_of(a) == hash_of(b)
        assert hash_of(a) != hash_of(c)

"""Command line for the lattice ensemble laboratory.

Subcommands: sample, dos, minimize, relation, dynamics, verify,
free-energy.  Shared flags (--seed, --out, --format, --config)
attach to every subcommand; GGE_SEED in the environment supplies the seed
when --seed is absent.  A config file holds flat `key = value` lines, each
read as the flag `--key=value` ahead of the command line's own flags: it
gets the same checks, and explicit flags win.

Each subcommand builds its files, csv tables and JSON documents by name,
and hands them to one emit step, _emit, which picks the --format and
writes them through _write_csv and _write_json, the package's only file
writers.  Every output file embeds the effective seed and a hash of the
effective configuration, so reruns with the same inputs produce identical
bytes.  The library returns arrays and reports, and the reports written
here answer to_dict() with plain JSON-ready values.
Potentials are written as comma-separated coefficients: `c0=..,c1=..,s1=..`
builds a trigonometric polynomial on the torus, `t0=..,t1=..` a Chebyshev
polynomial on [-1, 1]; a coefficient given twice is rejected.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .cmv_core import (NumericalError, build_cmv, build_periodic_cmv,
                       eigen_angles)
from .dynamics import (FlowState, IntegratorParams, conservation_report,
                       integrate, lax_residual)
from .equilibrium import (ConvergenceError, SolverParams, free_energy_interval,
                          free_energy_torus, minimize_interval, minimize_torus)
from .ldp_lab import (check_coupling_lemma, check_dos_relation,
                      check_exp_moment, check_free_energy_relation,
                      estimate_free_energy)
from .potentials import Potential
from .sampling import (ENSEMBLE_KINDS, KINDS, EnsembleSpec, McmcParams,
                       _seed, make_rng, sample_ensemble)
from .spectral_measures import EmpiricalMeasure, fourier_coeffs

__all__ = ["load_config", "main", "parse_potential"]


# --------------------------------------------------------------------------
# configuration plumbing


@dataclass(frozen=True)
class RunConfig:
    """Effective run parameters with their stable hash."""

    command: str
    params: tuple
    seed: int
    out: str
    fmt: str

    @property
    def hash(self):
        digest = hashlib.sha256(self.command.encode())
        for key, value in self.params:
            digest.update(f"{key}={value};".encode())
        return digest.hexdigest()[:12]


def parse_potential(text):
    """Parse `c0=..,c1=..,s1=..` (torus) or `t0=..,t1=..` (interval)."""
    if text is None or text.strip() in ("", "none"):
        return None
    cos, sin, cheb = {}, {}, {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad potential term {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        kind, index = key[:1], key[1:]
        if kind not in ("c", "s", "t") or not index.isdigit():
            raise ValueError(f"bad potential key {key!r}; use c<k>, s<k> or t<k>")
        k = int(index)
        if kind == "s" and k == 0:
            raise ValueError("sine coefficients start at s1")
        try:
            coeff = float(value)
        except ValueError:
            raise ValueError(f"bad potential value {value!r} for {key}") from None
        terms = {"c": cos, "s": sin, "t": cheb}[kind]
        if k in terms:
            raise ValueError(f"potential coefficient {kind}{k} is given twice")
        terms[k] = coeff
    if cheb and (cos or sin):
        raise ValueError("cannot mix torus (c/s) and interval (t) coefficients")
    if cheb:
        return Potential("interval", cheb=_vector(cheb, max(cheb) + 1))
    return Potential("torus", cos=_vector(cos, max(cos, default=0) + 1),
                     sin=_vector(sin, max(sin, default=0), first=1))


def _vector(terms, size, first=0):
    """The coefficients {k: value} as an array of `size` from index `first`."""
    arr = np.zeros(size)
    for k, val in terms.items():
        arr[k - first] = val
    return arr


def load_config(path):
    """Read a flat key-value config file; `#` starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_tokens(command_parser, path):
    """The `--key=value` tokens of a config file for one subcommand.

    Each key must name one of the subcommand's options exactly; a stored-true
    flag takes a true/false word instead of a value.  The tokens go through
    the subcommand's own parser, so values get the checks of flags.
    """
    try:
        data = load_config(path)
    except (OSError, ValueError) as exc:
        command_parser.error(f"config file: {exc}")
    options = {a.dest: a for a in command_parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    tokens = []
    for key, raw in data.items():
        if key not in options:
            command_parser.error(f"unknown config key {key!r}")
        flag = options[key].option_strings[0]
        if options[key].nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.lower() not in _BOOLEANS:
            command_parser.error(f"config key {key}: bad boolean {raw!r}")
        elif _BOOLEANS[raw.lower()]:
            tokens.append(flag)
    return tokens


def _run_config(args):
    skip = {"func", "command", "config", "out", "seed"}
    params = tuple(sorted((k, str(v)) for k, v in vars(args).items()
                          if k not in skip))
    return RunConfig(command=args.command, params=params,
                     seed=_seed(args.seed), out=args.out,
                     fmt=args.format)


# --------------------------------------------------------------------------
# output helpers


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write_json(cfg, name, doc):
    doc["config_hash"] = cfg.hash
    doc["seed"] = cfg.seed
    path = _out_path(cfg, name)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(cfg, name, header, rows):
    path = _out_path(cfg, name)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg.hash}\n# seed={cfg.seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return path


def _emit(cfg, csv_files, json_files, both=None):
    """Write the files of the chosen format, then `both`; return their paths.

    Each mapping takes a file name to its payload: a (header, rows) pair for
    a .csv name, a JSON document for a .json name.  This is the one place
    that reads the --format choice.
    """
    files = {**(csv_files if cfg.fmt == "csv" else json_files), **(both or {})}
    return [_write_csv(cfg, name, *payload) if name.endswith(".csv")
            else _write_json(cfg, name, payload)
            for name, payload in files.items()]


def _mcmc_from(args):
    return McmcParams(sweeps=args.samples, burn_in=args.burn_in,
                      thinning=args.thinning)


def _batch(args, cfg):
    """The batch of the --ensemble, --n, --beta, --potential and chain flags."""
    spec = EnsembleSpec(args.ensemble, args.n, args.beta,
                        parse_potential(args.potential))
    return sample_ensemble(spec, _mcmc_from(args), make_rng(cfg.seed))


def _alpha_table(label, first, a):
    """Header and rows of a leading column plus re/im columns per site."""
    header = [label] + [f"{part}_alpha_{j}" for j in range(1, a.shape[1] + 1)
                        for part in ("re", "im")]
    parts = np.stack([a.real, a.imag], axis=-1).reshape(len(a), -1)
    return header, np.column_stack([first, parts])


def _batch_angles(batch):
    build = build_periodic_cmv if KINDS[batch.kind].periodic else build_cmv
    return np.array([eigen_angles(build(row)) for row in batch.alphas])


# --------------------------------------------------------------------------
# subcommands


def cmd_sample(args, cfg):
    """Draw coefficient vectors and optionally their eigen-angles."""
    batch = _batch(args, cfg)
    a = batch.alphas.astype(complex)
    csv_files = {"samples.csv": _alpha_table(
        "sample", np.arange(batch.n_samples), a)}
    doc = {
        "ensemble": batch.kind,
        "beta": batch.beta,
        "n_samples": batch.n_samples,
        "size": batch.size,
        "acceptance_rate": batch.acceptance_rate,
        "alphas_re": a.real.tolist(),
        "alphas_im": a.imag.tolist(),
    }
    if args.angles:
        angle_rows = _batch_angles(batch)
        csv_files["angles.csv"] = (
            ["sample"] + [f"theta_{j}" for j in range(1, batch.size + 1)],
            np.column_stack([np.arange(batch.n_samples), angle_rows]))
        doc["angles"] = angle_rows.tolist()
    paths = _emit(cfg, csv_files, {"samples.json": doc})

    acc = "exact" if batch.acceptance_rate is None else f"{batch.acceptance_rate:.3f}"
    print(f"sample: {batch.kind} n_samples={batch.n_samples} size={batch.size} "
          f"beta={batch.beta:g} acceptance={acc} mean_abs_sq="
          f"{float(np.mean(np.abs(a) ** 2)):.4f} seed={cfg.seed} -> "
          + ", ".join(paths))
    return 0


def cmd_dos(args, cfg):
    """Monte Carlo density of states: histogram plus Fourier coefficients."""
    batch = _batch(args, cfg)
    angles = _batch_angles(batch).ravel()
    domain = KINDS[batch.kind].domain
    if domain == "torus":
        pool, lo, hi = angles, -np.pi, np.pi
    else:
        # fixed boundary coefficients can pin eigenvalues at exactly +-1
        pool = np.clip(np.cos(angles), -1.0 + 1e-12, 1.0 - 1e-12)
        lo, hi = -1.0, 1.0
    counts, edges = np.histogram(pool, bins=args.bins, range=(lo, hi),
                                 density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    coeffs = fourier_coeffs(EmpiricalMeasure(pool, domain), k_max=args.k_max).c

    paths = _emit(cfg, {
        "dos_histogram.csv": (["center", "density"],
                              np.column_stack([centers, counts])),
        "dos_fourier.csv": (["k", "re", "im"],
                            np.column_stack([np.arange(1, coeffs.size + 1),
                                             coeffs.real, coeffs.imag])),
    }, {"dos.json": {
        "ensemble": batch.kind,
        "beta": batch.beta,
        "n_samples": batch.n_samples,
        "domain": domain,
        "bin_centers": centers.tolist(),
        "density": counts.tolist(),
        "fourier_re": coeffs.real.tolist(),
        "fourier_im": coeffs.imag.tolist(),
    }})
    mass = float(np.sum(counts * np.diff(edges)))
    print(f"dos: {batch.kind} pooled {pool.size} points, histogram mass "
          f"{mass:.6f}, |c_1| = {abs(coeffs[0]):.4f} -> " + ", ".join(paths))
    return 0


_SOLVER_FLAGS = ("tolerance", "max_iterations", "grid_size")


def cmd_minimize(args, cfg):
    """Minimize the free-energy functional and write the density."""
    v = parse_potential(args.potential)
    domain = args.domain or (v.domain if v is not None else "torus")
    given = {key: getattr(args, key) for key in _SOLVER_FLAGS
             if getattr(args, key) is not None}
    params = SolverParams(**given)
    minimize, free_energy = (
        (minimize_torus, free_energy_torus) if domain == "torus"
        else (minimize_interval, free_energy_interval))
    rho = minimize(v, args.beta, params=params)
    breakdown = free_energy(rho, v, args.beta)

    report = {
        "domain": domain,
        "beta": args.beta,
        "potential": v.to_dict() if v is not None else None,
        "free_energy": asdict(breakdown),
        "residual": rho.residual,
        "iterations": rho.iterations,
        "edge_masses": list(rho.edge_masses),
        "grid_size": params.grid_size,
    }
    paths = _emit(cfg, {
        "minimize.json": report,
        "density.csv": (["node", "density", "weight"],
                        np.column_stack([rho.nodes, rho.values, rho.weights])),
    }, {"minimize.json": {**report, "nodes": rho.nodes.tolist(),
                          "density": rho.values.tolist(),
                          "weights": rho.weights.tolist()}})
    print(f"minimize: {domain} beta={args.beta:g} total="
          f"{breakdown.total:.8f} residual={rho.residual:.3e} "
          f"iterations={rho.iterations} -> " + ", ".join(paths))
    return 0


def cmd_relation(args, cfg):
    """Density-of-states consistency check between sampler and solver;
    exit 0 only if it passes."""
    v = parse_potential(args.potential)
    rep = check_dos_relation(args.ensemble, v, args.beta, args.n,
                             mcmc=_mcmc_from(args), rng=make_rng(cfg.seed),
                             threshold=args.threshold, k_max=args.k_max)
    [path] = _emit(cfg, {}, {}, {"relation.json": rep.to_dict()})
    verdict = "pass" if rep.passed else "FAIL"
    print(f"relation: {args.ensemble} beta={args.beta:g} D={rep.d_value:.5f} "
          f"threshold={rep.threshold:g} {verdict} -> {path}")
    return 0 if rep.passed else 1


def cmd_dynamics(args, cfg):
    """Integrate one flow, write the trajectory and conservation report."""
    if not np.isfinite(args.rmax):
        raise ValueError(f"--rmax must be finite, got {args.rmax!r}")
    rng = make_rng(cfg.seed)
    n = args.n
    if args.init == "constant":
        a0 = np.full(n, args.rmax, float if args.flow == "schur" else complex)
    elif args.flow == "schur":
        a0 = rng.uniform(-args.rmax, args.rmax, size=n)
    else:
        radius = args.rmax * np.sqrt(rng.uniform(size=n))
        a0 = radius * np.exp(2j * np.pi * rng.uniform(size=n))
    params = IntegratorParams(dt=args.dt, t_final=args.t_final)
    traj = integrate(FlowState(a0), args.flow, params, max_frames=args.frames)
    report = conservation_report(traj)
    residual = (float(lax_residual(traj[0]))
                if args.flow == "al" else None)

    a = np.asarray(traj.alphas, complex)
    paths = _emit(cfg, {"trajectory.csv": _alpha_table("t", traj.times, a)},
                  {"trajectory.json": {"t": traj.times.tolist(),
                                       "alphas_re": a.real.tolist(),
                                       "alphas_im": a.imag.tolist()}},
                  {"conservation.json": {**report.to_dict(),
                                         "lax_residual": residual,
                                         "t_final": args.t_final}})
    lax = "n/a" if residual is None else f"{residual:.3e}"
    print(f"dynamics: {args.flow} n={n} dt={args.dt:g} T={args.t_final:g} "
          f"max_drift={report.max_drift:.3e} lax_residual={lax} -> "
          + ", ".join(paths))
    return 0


_VERIFY_SUITE = ("coupling", "exp_moment", "dos_al", "dos_schur",
                 "free_energy_relation")


def _verify_one(name, scale, rng):
    s = scale if scale is not None else 1
    if name == "coupling":
        return check_coupling_lemma(3.0, 0.5, 20000 * s, rng=rng)
    if name == "exp_moment":
        return check_exp_moment((0.1, 0.5, 0.9), 20000 * s, rng=rng)
    if name in ("dos_al", "dos_schur"):
        return check_dos_relation(name[4:], None, 1.0, 32,
                                  mcmc=McmcParams(sweeps=1000 * s), rng=rng)
    v = Potential("torus", cos=[0.0, 0.5])  # free_energy_relation
    return check_free_energy_relation(v, 1.0, mcmc=McmcParams(sweeps=400 * s),
                                      rng=rng, n=32)


def cmd_verify(args, cfg):
    """Run the statistical check suite; exit 0 only if everything passes."""
    names = (args.check,) if args.check else _VERIFY_SUITE
    rng = make_rng(cfg.seed)
    failures = []
    for name in names:
        rep = _verify_one(name, args.samples, rng)
        _emit(cfg, {}, {}, {f"{name}.json": rep.to_dict()})
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"{name}: {verdict}")
        if not rep.passed:
            failures.append(name)
    if failures:
        print("failing checks: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def cmd_free_energy(args, cfg):
    """Thermodynamic-integration free energy of one ensemble."""
    v = parse_potential(args.potential)
    grid = (tuple(float(x) for x in args.s_grid.split(","))
            if args.s_grid else None)
    fe = estimate_free_energy(args.ensemble, v, args.beta, s_grid=grid,
                              mcmc=_mcmc_from(args), rng=make_rng(cfg.seed),
                              n=args.n)
    [path] = _emit(cfg, {}, {}, {"free_energy.json": fe.to_dict()})
    print(f"free-energy: {args.ensemble} beta={args.beta:g} value="
          f"{fe.value:.6f} std_error={fe.std_error:.6f} -> {path}")
    return 0


# --------------------------------------------------------------------------
# parser


class _DefaultsFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows every default that is set; an unset one (None) is resolved
    further down, and the help text says how."""

    def _get_help_string(self, action):
        if action.default is None or action.default is False:
            return action.help
        return super()._get_help_string(action)


def _build_parsers():
    """The ggelab parser and the parser of each subcommand by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed; GGE_SEED is the fallback")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="data file format")
    common.add_argument("--config", default=None,
                        help="flat key=value file merged under the flags")

    parser = argparse.ArgumentParser(
        prog="ggelab",
        description="Gibbs ensembles of unitary lattice Lax matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help,
                           formatter_class=_DefaultsFormatter)
        p.set_defaults(func=func)
        return p

    def beta_opts(p):
        p.add_argument("--beta", type=float, required=True,
                       help="inverse temperature")
        p.add_argument("--potential", default=None,
                       help="c0=..,c1=..,s1=.. on the torus or t0=..,t1=.. "
                            "on the interval")

    def ensemble_opts(p, n, kinds=ENSEMBLE_KINDS):
        p.add_argument("--ensemble", choices=kinds, default="al",
                       help="Gibbs family")
        p.add_argument("--n", type=int, default=n, help="matrix size")
        beta_opts(p)

    def mcmc_opts(p, samples):
        p.add_argument("--samples", type=int, default=samples,
                       help="kept Monte Carlo states")
        p.add_argument("--burn-in", type=int, default=None,
                       help="sweeps discarded first (default 10 times "
                            "the matrix size)")
        p.add_argument("--thinning", type=int, default=None,
                       help="site updates between kept states; a state is "
                            "kept every ceil(thinning / N) sweeps, N the "
                            "matrix size (default N: one sweep)")

    p = command("sample", cmd_sample,
                "draw coefficient vectors from one ensemble")
    ensemble_opts(p, n=32)
    p.add_argument("--angles", action="store_true",
                   help="also write sorted eigen-angles")
    mcmc_opts(p, samples=100)

    p = command("dos", cmd_dos, "Monte Carlo density of states")
    ensemble_opts(p, n=64)
    p.add_argument("--bins", type=int, default=64, help="histogram bins")
    p.add_argument("--k-max", type=int, default=16,
                   help="Fourier coefficients written")
    mcmc_opts(p, samples=200)

    p = command("minimize", cmd_minimize,
                "minimize a free-energy functional")
    p.add_argument("--domain", choices=("torus", "interval"), default=None,
                   help="default: the potential's domain, else the torus")
    beta_opts(p)
    p.add_argument("--grid-size", type=int, default=None,
                   help="grid nodes: equispaced angles on the torus, a "
                        "uniform t = ln tan(theta/2) grid over [-36, 36] on "
                        f"the interval (default {SolverParams.grid_size}, "
                        "at least 16)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="stop once the largest damped step of ln(density) "
                        "at the current iterate is below this (default "
                        f"{SolverParams.tolerance:g})")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="iteration budget; when it runs out the command "
                        f"exits 1 (default {SolverParams.max_iterations})")

    p = command("relation", cmd_relation,
                "density-of-states consistency check; exits 1 when it fails")
    ensemble_opts(p, n=64, kinds=("al", "schur"))
    p.add_argument("--threshold", type=float, default=0.02,
                   help="largest Fourier distance D that passes")
    p.add_argument("--k-max", type=int, default=16,
                   help="Fourier modes in D (at least 4)")
    mcmc_opts(p, samples=500)

    p = command("dynamics", cmd_dynamics,
                "integrate a flow and check conservation")
    p.add_argument("--flow", choices=("al", "schur"), default="al",
                   help="Ablowitz-Ladik or Schur flow")
    p.add_argument("--n", type=int, default=32, help="lattice sites")
    p.add_argument("--dt", type=float, default=1e-3, help="RK4 step")
    p.add_argument("--t-final", type=float, default=1.0, help="end time")
    p.add_argument("--frames", type=int, default=256,
                   help="most frames kept in the trajectory file")
    p.add_argument("--init", choices=("random", "constant"), default="random",
                   help="initial data: uniform within radius rmax, or "
                        "rmax at every site")
    p.add_argument("--rmax", type=float, default=0.3,
                   help="radius of the initial data")

    p = command("verify", cmd_verify, "run the statistical check suite")
    p.add_argument("--check", choices=_VERIFY_SUITE, default=None,
                   help="run a single named check instead of the suite")
    p.add_argument("--samples", type=int, default=None,
                   help="scale factor on per-check sample counts")

    p = command("free-energy", cmd_free_energy,
                "thermodynamic-integration free energy")
    ensemble_opts(p, n=32)
    p.add_argument("--s-grid", default=None,
                   help="comma-separated coupling nodes from 0 to 1")
    mcmc_opts(p, samples=200)

    return parser, sub.choices


def _config_path(argv):
    """The --config value of a command line, read ahead of the one full
    parse that the file's tokens feed into."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    return pre.parse_known_args(argv)[0].config


def main(argv=None):
    parser, commands = _build_parsers()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in commands:
        config = _config_path(argv[1:])
        if config is not None:
            # after the subcommand, before the flags: the last one wins
            argv[1:1] = _config_tokens(commands[argv[0]], config)
    args = parser.parse_args(argv)
    try:
        return args.func(args, _run_config(args))
    except ConvergenceError as exc:
        print(f"error: minimization did not converge: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

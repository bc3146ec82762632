"""Every settable value of the lab, in one table: the parameters of each
public function, the fields of each public dataclass, the attributes of
each public plain class, the flags of each subcommand and the environment
variables the package reads.

Each option doubles the configurations the tests must cover, so an option
is kept only where a caller sets it to something other than its default.
A change that adds or removes an option edits this table and says why in
CHANGES.md, as tests/test_one_writer.py does for file writers; ROADMAP.md
lists why each remaining option is kept.  A stored field is kept only where
something reads it: a change that adds one to a public dataclass edits
DATACLASSES, and one that adds an attribute to a public plain class edits
PLAIN_CLASSES, naming the reader in the comment above its entry.
"""

import ast
import importlib
import inspect
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from ggelab.cli import _build_parsers
from ggelab.cmv_core import build_periodic_cmv
from ggelab.equilibrium import GridDensity
from ggelab.potentials import Potential
from ggelab.spectral_measures import EmpiricalMeasure, FourierCoeffs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggelab"
MODULES = ("cmv_core", "potentials", "sampling", "spectral_measures",
           "equilibrium", "dynamics", "ldp_lab", "cli")

# public function -> its parameters, in order
ENTRY_POINTS = {
    "cmv_core.build_periodic_cmv": ("v",),
    "cmv_core.build_cmv": ("v",),
    "cmv_core.eigen_angles": ("m",),
    "cmv_core.trace_power": ("m", "ell"),
    "cmv_core.batch_trace_powers": ("alpha", "ell_max", "topology"),
    "cmv_core.periodic_diagonals": ("alpha",),
    "cmv_core.open_diagonals": ("alpha",),
    "cmv_core.geronimus_diagonals": ("alpha",),
    "cmv_core.e_plus": ("m",),
    "cmv_core.conserved_quantities": ("alpha", "ell_max"),
    "sampling.make_rng": ("seed",),
    "sampling.sample_chi": ("dof", "rng", "size"),
    "sampling.sample_coupled_family": ("nu", "h_values", "rng", "size"),
    "sampling.sample_al_gge": ("spec", "mcmc", "rng"),
    "sampling.sample_schur_gge": ("spec", "mcmc", "rng"),
    "sampling.sample_circular_beta": ("n", "beta", "potential", "mcmc",
                                      "rng"),
    "sampling.sample_jacobi_beta": ("n", "beta", "potential", "mcmc", "rng"),
    "sampling.sample_ensemble": ("spec", "mcmc", "rng"),
    "spectral_measures.fourier_coeffs": ("mu", "k_max"),
    "spectral_measures.distance_D": ("mu", "nu", "k_max"),
    "equilibrium.free_energy_torus": ("rho", "v", "beta"),
    "equilibrium.minimize_torus": ("v", "beta", "params"),
    "equilibrium.free_energy_interval": ("rho", "v", "beta"),
    "equilibrium.minimize_interval": ("v", "beta", "params"),
    "equilibrium.beta_derivative_measure": ("v", "beta", "params", "domain"),
    "dynamics.al_rhs": ("state",),
    "dynamics.schur_rhs": ("state",),
    "dynamics.integrate": ("state0", "which_flow", "params", "max_frames"),
    "dynamics.conservation_report": ("trajectory",),
    "dynamics.lax_residual": ("state", "dt_probe"),
    "dynamics.gge_invariance_test": ("spec", "t_final", "n_samples", "rng",
                                     "dt"),
    "ldp_lab.check_coupling_lemma": ("nu", "h", "n_samples", "rng"),
    "ldp_lab.check_dos_relation": ("ensemble", "v", "beta", "n", "mcmc",
                                   "delta", "rng", "threshold", "k_max"),
    "ldp_lab.check_exp_moment": ("h_grid", "n_samples", "rng"),
    "ldp_lab.check_free_energy_relation": ("v", "beta", "delta", "s_grid",
                                           "mcmc", "rng", "n"),
    "ldp_lab.estimate_free_energy": ("ensemble", "v", "beta", "s_grid",
                                     "mcmc", "rng", "n"),
    "ldp_lab.rate_function_value": ("mu", "v", "beta", "params"),
    "cli.load_config": ("path",),
    "cli.main": ("argv",),
    "cli.parse_potential": ("text",),
}

# public dataclass -> its fields; each comment names the fields' readers
DATACLASSES = {
    # FlowState, and cmv_core._build and dynamics._coefficients through it
    "cmv_core.VerblunskyVector": ("alpha",),
    # dynamics.conservation_report; the benchmark's trace oracle
    "cmv_core.ConservedQuantities": ("k0", "k1", "trace_powers"),
    # ldp_lab.check_coupling_lemma
    "sampling.CoupledFamily": ("alpha_nu", "alphas", "z"),
    # sampling._sample
    "sampling.McmcParams": ("sweeps", "burn_in", "thinning"),
    # sampling._sample, _draw_sites, _classes and EnsembleSpec; cli
    "sampling.EnsembleKind": ("domain", "periodic", "interior"),
    # the samplers, dynamics.gge_invariance_test
    "sampling.EnsembleSpec": ("kind", "n", "beta", "potential"),
    # cli sample and dos; ldp_lab's checks (acceptance_rate)
    "sampling.SampleBatch": ("alphas", "kind", "beta", "acceptance_rate"),
    # equilibrium._fixed_point (tolerance, max_iterations) and the two
    # problem builders (grid_size)
    "equilibrium.SolverParams": ("tolerance", "max_iterations", "grid_size"),
    # cli minimize (asdict, into minimize.json); ldp_lab (total, interaction)
    "equilibrium.FreeEnergyBreakdown": ("interaction", "potential",
                                        "entropy", "total"),
    # integrate, lax_residual, al_rhs, schur_rhs; the benchmark (alphas)
    "dynamics.FlowState": ("alphas", "time"),
    # integrate
    "dynamics.IntegratorParams": ("dt", "t_final"),
    # cli dynamics' trajectory files (times, alphas), conservation_report (alphas,
    # flow), the benchmark's tracer (n_steps)
    "dynamics.Trajectory": ("times", "alphas", "flow", "n_steps"),
    # to_dict, written to conservation.json
    "dynamics.ConservationReport": ("flow", "n_sites", "n_frames", "ell_max",
                                    "drifts"),
    # passes and p_values (statistics), the benchmark's tracer (n_sites,
    # n_samples, t_final, dt) and its result digest, which hashes the repr
    "dynamics.InvarianceReport": ("flow", "beta", "n_sites", "n_samples",
                                  "t_final", "dt", "statistics", "warnings"),
    # to_dict, written by cli verify
    "ldp_lab.CheckReport": ("check", "parameters", "statistics", "passed",
                            "warnings"),
    # to_dict, written by cli free-energy
    "ldp_lab.FreeEnergyEstimate": ("value", "std_error", "grid", "ensemble",
                                   "beta", "n_samples", "warnings"),
    # to_dict, written by cli relation and verify
    "ldp_lab.RelationReport": ("check", "beta", "potential", "d_value",
                               "mc_samples", "solver_residual", "threshold",
                               "passed", "parameters", "statistics",
                               "warnings"),
}

# public plain class -> the attributes of a built instance (its vars), in
# order; each comment names the attributes' readers
PLAIN_CLASSES = {
    # edge_masses, values, weights: mass, integrate, fourier and the free
    # energies; domain and nodes: theta, x, integrate and fourier; residual
    # and iterations: cli minimize, beta_derivative_measure and the
    # benchmark's tracer; signed: fourier's tolerance
    "equilibrium.GridDensity": ("edge_masses", "domain", "nodes", "weights",
                                "values", "residual", "iterations", "signed"),
    # fourier (domain, atoms), integrate (atoms)
    "spectral_measures.EmpiricalMeasure": ("domain", "atoms"),
    # distance_D, cli dos, ldp_lab._moment_rows and equilibrium's torus
    # free energy (c); __getitem__, truncated, fourier, distance_D (k_max)
    "spectral_measures.FourierCoeffs": ("c", "k_max"),
    # eigen_angles (topology, alpha), e_plus (topology, band), dense and
    # trace_power (band, n), lax_residual (n)
    "cmv_core.CmvMatrix": ("topology", "band", "n", "alpha"),
    # __call__, scaled, to_dict and repr (domain, cos, sin, cheb);
    # spectral_mean, is_zero and estimate_free_energy (constant); degree
    # and trace_weights (_w)
    "potentials.Potential": ("domain", "cos", "sin", "cheb", "constant",
                             "_w"),
}

# one built instance of each plain class
PLAIN_INSTANCES = {
    "equilibrium.GridDensity":
        lambda: GridDensity("torus", np.full(8, 1.0 / (2.0 * np.pi))),
    "spectral_measures.EmpiricalMeasure": lambda: EmpiricalMeasure([0.1]),
    "spectral_measures.FourierCoeffs": lambda: FourierCoeffs([0.5]),
    "cmv_core.CmvMatrix": lambda: build_periodic_cmv(np.zeros(4)),
    "potentials.Potential": lambda: Potential("torus", cos=[0.0, 1.0]),
}

# flags of every subcommand, next to the shared ones
SHARED_FLAGS = ("--seed", "--out", "--format", "--config")
_ENSEMBLE = ("--ensemble", "--n", "--beta", "--potential")
_MCMC = ("--samples", "--burn-in", "--thinning")
FLAGS = {
    "sample": _ENSEMBLE + ("--angles",) + _MCMC,
    "dos": _ENSEMBLE + ("--bins", "--k-max") + _MCMC,
    "minimize": ("--domain", "--beta", "--potential", "--grid-size",
                 "--tolerance", "--max-iterations"),
    "relation": _ENSEMBLE + ("--threshold", "--k-max") + _MCMC,
    "dynamics": ("--flow", "--n", "--dt", "--t-final", "--frames", "--init",
                 "--rmax"),
    "verify": ("--check", "--samples"),
    "free-energy": _ENSEMBLE + ("--s-grid",) + _MCMC,
}

ENVIRONMENT = {"GGE_SEED"}


def _public():
    """(module.name, object) for every name of each module's __all__."""
    for module in MODULES:
        mod = importlib.import_module(f"ggelab.{module}")
        for name in mod.__all__:
            yield f"{module}.{name}", getattr(mod, name)


def test_every_public_function_is_in_the_table():
    found = {key: tuple(inspect.signature(obj).parameters)
             for key, obj in _public() if inspect.isfunction(obj)}
    assert found == ENTRY_POINTS


def test_every_public_dataclass_is_in_the_table():
    found = {key: tuple(f.name for f in fields(obj))
             for key, obj in _public()
             if inspect.isclass(obj) and is_dataclass(obj)}
    assert found == DATACLASSES


def test_every_public_plain_class_is_in_the_table():
    found = {key for key, obj in _public()
             if inspect.isclass(obj) and not is_dataclass(obj)
             and not issubclass(obj, Exception)}
    assert found == set(PLAIN_CLASSES) == set(PLAIN_INSTANCES)


@pytest.mark.parametrize("key", sorted(PLAIN_CLASSES))
def test_plain_class_attributes_are_in_the_table(key):
    assert tuple(vars(PLAIN_INSTANCES[key]())) == PLAIN_CLASSES[key]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_flags_are_in_the_table(command):
    parser = _build_parsers()[1][command]
    flags = tuple(a.option_strings[-1] for a in parser._actions
                  if a.option_strings and a.dest != "help")
    assert flags == SHARED_FLAGS + FLAGS[command]


def test_no_other_subcommand():
    assert set(_build_parsers()[1]) == set(FLAGS)


def _environment_reads(tree):
    """Names read through os.environ.get, os.environ[...] or os.getenv."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and isinstance(
                node.args[0], ast.Constant):
            func = ast.unparse(node.func)
            if func in ("os.environ.get", "os.getenv"):
                names.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript)
              and ast.unparse(node.value) == "os.environ"
              and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    return names


def test_environment_variables_are_in_the_table():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= _environment_reads(ast.parse(path.read_text()))
    assert found == ENVIRONMENT


def test_the_check_sees_an_environment_read():
    src = ("import os\na = os.environ.get('A', '')\nb = os.environ['B']\n"
           "c = os.getenv('C')\nd = environ.get('D')\n")
    assert _environment_reads(ast.parse(src)) == {"A", "B", "C"}

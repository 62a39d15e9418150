"""Command-line interface: bound, simulate, sweep, estimate, norms.

Options may come from flags or from a flat ``key = value`` config file
(``--config``); explicit flags win over the file, the file wins over
defaults.  Each option is declared once, as a ``RunConfig`` field; the
config keys and the subcommand parsers are generated from those fields.
Exit codes: 0 success, 2 any invalid value or unreadable file (line-anchored
for config and CSV files), 3 numeric divergence; ``main`` is the one place
that maps errors to them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional

from . import bounds as bnd
from . import divergence as dv
from . import orlicz as orz
from . import simulate as sim
from ._csv import Table
from .cgf import (SubExponential, SubGamma, Tabulated,
                  subexponential_piecewise_bound)

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    """An invalid option or config file; ``main`` exits 2 on any ValueError."""


def _parse_float(s: str) -> float:
    x = float(s)
    if math.isnan(x):
        raise ValueError(f"expected a number, got {s!r}")
    return x


def _parse_list(item, what: str):
    """Parser of a comma-separated list of ``item`` values, ``what`` in its error.
    A blank value is the empty list; an empty item in any other is refused."""
    def parse(s: str) -> list:
        try:
            return [item(x) for x in str(s).split(",")] if str(s).strip() else []
        except ValueError:
            raise ValueError(f"expected comma-separated {what}, got {s!r}") from None
    return parse


def _parse_bool(s: str) -> bool:
    t = str(s).strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


# value kinds: (parse, serialize, what a flag's parser error calls the value)
_INT = (int, str, "integer")
_STR = (str, str, "string")
_FLOAT = (_parse_float, lambda v: repr(float(v)), "number")
_FLOATS = (_parse_list(_parse_float, "floats"),
           lambda v: ",".join(repr(float(x)) for x in v), "list of numbers")
_INTS = (_parse_list(int, "integers"),
         lambda v: ",".join(str(int(x)) for x in v), "list of integers")
_BOOL = (_parse_bool, lambda v: "true" if v else "false", "boolean")


def _flag_type(kind):
    """The argparse type of a flag: parse, with errors like ``invalid number: 'abc'``."""
    parse, _, what = kind

    def convert(s: str):
        try:
            return parse(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what}: {s!r}") from None
    return convert


# --model names; the dataclass defaults are the CLI defaults
_MODELS = {"gaussian": sim.GaussianIID, "exponential": sim.ExponentialIID,
           "heavytail": sim.HeavyTailIID}
# NAME:ARG specs of --rule and --psi: name -> (factory, default of its one
# parameter, None for a factory without one); a rule's is its dataclass default
_RULES = {name: (rule, next((f.default for f in fields(rule)), None))
          for name, rule in (("argmax", sim.ArgMax), ("argmin", sim.ArgMin),
                             ("fixed", sim.FixedIndex), ("topk", sim.TopKUniform),
                             ("softmax", sim.SoftMax))}
_PSIS = {"power": (orz.power_orlicz, 2.0), "scaled": (orz.scaled_power_orlicz, 2.0),
         "exp": (orz.exp_orlicz, None)}


def _parse_spec(spec: str, table, what: str):
    """NAME or NAME:ARG, looked up in ``table``; ARG, read as the type of the
    parameter's default, replaces that default, and is ignored without one.
    A rejected ARG reads ``invalid <what> <spec>: <reason>``."""
    name, _, arg = spec.partition(":")
    entry = table.get(name.strip().lower())
    if entry is None:
        raise ConfigError(f"unknown {what} {spec!r}")
    factory, default = entry
    try:
        if default is None:
            return factory()
        return factory(type(default)(arg) if arg else default)
    except ValueError as exc:
        raise ConfigError(f"invalid {what} {spec!r}: {exc}") from None


def _parse_rule(spec: str):
    return _parse_spec(spec, _RULES, "rule")


def _build_model(cfg: RunConfig):
    """The --model class, given the options named like its fields."""
    name = cfg.model or "gaussian"
    if name not in _MODELS:
        raise ConfigError(f"unknown model {name!r}")
    params = {}
    for f in fields(_MODELS[name]):
        v = getattr(cfg, f.name)
        if isinstance(v, list):  # --sigma is a list; a model takes one value
            v = _one(cfg, f.name)
        if v is not None:
            params[f.name] = v
    return _MODELS[name](**params)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, []):  # --sigma "" parses to []
            raise ConfigError(f"missing required option '{name}'")


def _one(cfg: RunConfig, name: str) -> float:
    """The value of a list option where one value is meant."""
    values = getattr(cfg, name)
    if len(values) != 1:
        raise ConfigError(f"option '{name}' takes one value here, got {len(values)}")
    return values[0]


def _budgets(cfg: RunConfig, report: bnd.BoundReport, alpha: float):
    """(I, I_alpha at order alpha) into the report: the one of --I and --i-alpha
    that a row reads, or both from --joint when it is unset."""
    info, i_alpha = cfg.info, cfg.i_alpha
    if info is None and i_alpha is None and cfg.joint:
        joint = dv.DiscreteJoint.from_csv(cfg.joint)
        info, i_alpha = dv.mutual_information(joint), dv.alpha_mutual_information(joint, alpha)
    report.dependence = {"I": info, "I_alpha": {} if i_alpha is None
                         else {sim._alpha_key(alpha): i_alpha}}
    return info, i_alpha


def _info(cfg: RunConfig, report: bnd.BoundReport) -> float:
    """I in nats for an MGF family, whose bound refuses a negative one."""
    info = _budgets(cfg, report, 2.0)[0]
    if info is None:
        raise ConfigError(f"{cfg.family} bound needs --I or --joint")
    return info


def _pnorm(cfg, report, p_t):
    alpha = bnd.conjugate_exponent(cfg.beta)
    report.meta.update(beta=cfg.beta, alpha=alpha)
    i_alpha = _budgets(cfg, report, alpha)[1]
    if i_alpha is None:
        raise ConfigError("pnorm bound needs --i-alpha, --joint, or --uniform")
    return {"pnorm": (bnd.pnorm_bound(cfg.sigma, p_t, cfg.beta, i_alpha), "two_sided")}


def _pnorm_uniform(cfg, report, p_t):
    report.meta.update(beta=cfg.beta, alpha=bnd.conjugate_exponent(cfg.beta), n=cfg.n)
    ub = bnd.pnorm_uniform_bound(cfg.sigma, cfg.beta, cfg.n, p_t)
    return {"pnorm_uniform": (ub.value, "two_sided"),
            "pnorm_uniform_loose": (ub.loose, "two_sided")}


def _subexponential(cfg, report, p_t):
    info, sigma = _info(cfg, report), _one(cfg, "sigma")
    return {"subexponential": (SubExponential(sigma, cfg.b).inverse_conjugate(info), "upper"),
            "subexponential_piecewise": (subexponential_piecewise_bound(sigma, cfg.b, info),
                                         "printed_form")}


# bound rows: (--family, --uniform) -> (options it requires, inputs it reads,
# builder (cfg, report, p_t) of its bounds name -> (value, side)), in --family order
_FAMILIES = {
    ("gaussian", False): (("sigma",), ("info", "joint", "p_t"), lambda cfg, report, p_t: {
        "gaussian": (bnd.gaussian_bound(cfg.sigma, _info(cfg, report), p_t), "upper")}),
    ("subgamma", False): (("sigma2", "c"), ("info", "joint"), lambda cfg, report, p_t: {
        "subgamma": (SubGamma(cfg.sigma2, cfg.c).inverse_conjugate(_info(cfg, report)),
                     "upper")}),
    ("subexponential", False): (("sigma", "b"), ("info", "joint"), _subexponential),
    ("pnorm", False): (("beta", "sigma"), ("i_alpha", "joint", "p_t"), _pnorm),
    # a cap over every joint on n cells, which reads no dependence
    ("pnorm", True): (("beta", "sigma", "n"), ("p_t", "uniform", "n"), _pnorm_uniform),
    ("tabulated", False): (("envelope",), ("info", "joint"), lambda cfg, report, p_t: {
        "mgf_tabulated": (Tabulated.from_csv(cfg.envelope).inverse_conjugate(
            _info(cfg, report)), "upper")}),
}


def cmd_bound(cfg: RunConfig) -> bnd.BoundReport:
    _require(cfg, "family")
    uniform = bool(cfg.uniform) and (cfg.family, True) in _FAMILIES  # else refused below
    if (cfg.family, uniform) not in _FAMILIES:  # a config file can name any family
        raise ConfigError(f"unknown family {cfg.family!r}")
    requires, reads, build = _FAMILIES[cfg.family, uniform]
    for name in ("info", "i_alpha", "joint", "p_t", "uniform", "n"):  # read by some rows
        value = getattr(cfg, name)
        if name not in reads and value is not None and value is not False:
            raise ConfigError(f"option {name!r} is not read by the " + (
                f"uniform {cfg.family} bound" if uniform else f"{cfg.family} family"))
    _require(cfg, *requires)
    report = bnd.BoundReport(meta={"command": "bound", "family": cfg.family, "seed": cfg.seed})
    p_t = dv.load_probability_vector(cfg.p_t) if cfg.p_t else None
    for name, (value, side) in build(cfg, report, p_t).items():
        report.add_bound(name, value, side)
    return report


def cmd_simulate(cfg: RunConfig) -> bnd.BoundReport:
    model = _build_model(cfg)
    rule = _parse_rule(cfg.rule or "argmax")
    alphas = list(cfg.alphas or [])
    # I_2 and the I_alpha that the moment cap's conjugate exponent consumes
    for a in (2.0, bnd.conjugate_exponent(model.moment_cap[0])):
        if a not in alphas:
            alphas.append(a)
    res = sim.run_experiment(model, rule, cfg.trials, cfg.seed, alphas=alphas,
                             workers=cfg.workers)
    report = bnd.BoundReport(
        meta={"command": "simulate", "model": model.label, "rule": rule.label,
              "n": model.n, "trials": res.trials, "seed": res.seed,
              "selected_mean": res.selected_mean,
              "dependence_estimator": res.estimator},
        empirical={"bias": res.bias, "stderr": res.stderr},
        dependence={"I": res.i, "I_alpha": res.i_alpha})
    if model.cgf_envelope is None:
        report.meta["beta_norm_uncentered"] = model.moment_cap[1]
    for name, (value, side) in sim.bounds_for(model, rule, res).items():
        report.add_bound(name, value, side)
    return report


def cmd_sweep(cfg: RunConfig) -> None:
    model = _build_model(cfg)
    rows = sim.tightness_sweep(model, cfg.n_list or [100, 1000, 10000], cfg.trials,
                               cfg.seed, workers=cfg.workers)
    _emit(sim.sweep_to_csv(rows) if cfg.format != "json" else bnd._json_text({
        "meta": {"command": "sweep", "model": model.label, "seed": cfg.seed},
        "rows": [vars(r) for r in rows]}), cfg)


def cmd_estimate(cfg: RunConfig) -> None:
    _require(cfg, "joint")
    joint = dv.DiscreteJoint.from_csv(cfg.joint)
    alphas = cfg.alphas or [2.0]
    i_val = dv.mutual_information(joint)
    i_alpha = {sim._alpha_key(a): dv.alpha_mutual_information(joint, a) for a in alphas}
    marginal = {sim._alpha_key(a): dv.alpha_mi_marginal_bound(joint.p_rows, a)
                for a in alphas}
    kl_cap = dv.phi_mi_marginal_bound(joint.p_rows, dv.kl_generator())
    equality = {k: bool(abs(i_alpha[k] - marginal[k]) <= 1e-9) for k in i_alpha}
    _emit(bnd._json_text({
        "meta": {"command": "estimate", "joint": cfg.joint,
                 "rows": joint.n_rows, "cols": joint.n_cols},
        "dependence": {"I": i_val, "I_alpha": i_alpha},
        "marginal_bounds": {"I_alpha": marginal, "kl": kl_cap},
        "equality_attained": equality,
    }), cfg)


def cmd_norms(cfg: RunConfig) -> None:
    _require(cfg, "data", "psi")
    psi = _parse_spec(cfg.psi, _PSIS, "psi")
    table = Table(cfg.data)
    if len(table.header) > 2:
        raise ConfigError(f"{cfg.data}: line 1: expected columns value or value,weight")
    data = table.floats()
    values, weights = data[:, 0], (data[:, 1] if data.shape[1] == 2 else None)
    out = {"meta": {"command": "norms", "data": cfg.data, "psi": psi.name},
           "norms": {}, "divergent": False}
    for name, fn in (("luxemburg", orz.luxemburg_norm), ("amemiya", orz.amemiya_norm)):
        try:
            v = fn(values, psi, weights)
        except orz.NumericDivergence:
            v = math.inf
        out["norms"][name] = v if math.isfinite(v) else None
    out["divergent"] = None in out["norms"].values()
    _emit(bnd._json_text(out), cfg)
    if out["divergent"]:  # raised once the report, with null for that norm, is out
        raise orz.NumericDivergence("norm diverged over the search range")


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: bnd.BoundReport, cfg: RunConfig) -> None:
    _emit(report.to_csv() if cfg.format == "csv" else report.to_json(), cfg)


# subcommand -> (help, handler of the resolved RunConfig)
_COMMANDS = {
    "bound": ("evaluate closed-form / numeric bias bounds",
              lambda cfg: _emit_report(cmd_bound(cfg), cfg)),
    "simulate": ("run a seeded selection experiment",
                 lambda cfg: _emit_report(cmd_simulate(cfg), cfg)),
    "sweep": ("argmax tightness sweep across sample sizes", cmd_sweep),
    "estimate": ("dependence measures of a joint CSV", cmd_estimate),
    "norms": ("Orlicz norms of a weighted sample CSV", cmd_norms),
}
_ALL = tuple(_COMMANDS)
_TAIL = ("bound", "simulate", "sweep")  # tail parameters of bounds and models
_SIM = ("simulate", "sweep")  # model and sampling options


def _option(kind, commands, *flags, default=None, **argparse_extras):
    """A RunConfig field, None when unset: its value kind, the subcommands that
    take it, its flags (default ``--name`` with dashes), the default that
    ``_resolve`` gives it and extra ``add_argument`` keywords."""
    return field(default=None, metadata={"kind": kind, "commands": commands,
                                         "flags": flags, "default": default,
                                         "extras": argparse_extras})


@dataclass
class RunConfig:
    """Typed option bag shared by the config file and the CLI flags.

    Each field is one option; its name is the config key.
    """

    seed: Optional[int] = _option(_INT, _ALL, default=0)
    out: Optional[str] = _option(_STR, _ALL, help="output path (default: stdout)")
    format: Optional[str] = _option(_STR, _ALL, choices=["json", "csv"])
    family: Optional[str] = _option(_STR, ("bound",),
                                   choices=[f for f, uniform in _FAMILIES if not uniform])
    sigma: Optional[List[float]] = _option(_FLOATS, _TAIL,
                                           help="sigma value or comma-separated list")
    sigma2: Optional[float] = _option(_FLOAT, ("bound",))
    c: Optional[float] = _option(_FLOAT, _TAIL)
    b: Optional[float] = _option(_FLOAT, ("bound",))
    beta: Optional[float] = _option(_FLOAT, _TAIL)
    info: Optional[float] = _option(_FLOAT, ("bound",), "--I", "--info",
                                    help="information budget in nats")
    i_alpha: Optional[float] = _option(_FLOAT, ("bound",))
    n: Optional[int] = _option(_INT, ("bound", "simulate"))
    uniform: Optional[bool] = _option(_BOOL, ("bound",), action="store_true",
                                      help="marginal-free bound over all joints on n cells")
    p_t: Optional[str] = _option(_STR, ("bound",),
                                 help="CSV file with the selection marginal")
    joint: Optional[str] = _option(_STR, ("bound", "estimate"), help=(
        "joint CSV; for bound, supplies I and I_alpha when not given"))
    envelope: Optional[str] = _option(_STR, ("bound",), help="tabulated envelope CSV")
    model: Optional[str] = _option(_STR, _SIM, choices=list(_MODELS))
    mu: Optional[float] = _option(_FLOAT, _SIM)
    rate: Optional[float] = _option(_FLOAT, _SIM)
    x0: Optional[float] = _option(_FLOAT, _SIM)
    rule: Optional[str] = _option(_STR, ("simulate",),
                                  help="argmax | argmin | fixed:IDX | topk:K | softmax:TEMP")
    trials: Optional[int] = _option(_INT, _SIM, default=10000)
    alphas: Optional[List[float]] = _option(_FLOATS, ("simulate", "estimate"))
    workers: Optional[int] = _option(_INT, _SIM, default=1)
    n_list: Optional[List[int]] = _option(_INTS, ("sweep",),
                                          help="comma-separated sample sizes")
    data: Optional[str] = _option(_STR, ("norms",), help=(
        "CSV with column 'value' and optional 'weight'"))
    psi: Optional[str] = _option(_STR, ("norms",), help="power:P | scaled:P | exp")

    def to_text(self) -> str:
        """Serialize the non-empty options as ``key = value`` lines."""
        return "\n".join(f"{f.name} = {f.metadata['kind'][1](getattr(self, f.name))}"
                         for f in fields(self) if getattr(self, f.name) is not None) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        kinds = {f.name: f.metadata["kind"] for f in fields(cls)}
        cfg = cls()
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}: line {i}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in kinds:
                raise ConfigError(f"{source}: line {i}: unknown key {key!r}")
            try:
                setattr(cfg, key, kinds[key][0](value))
            except ValueError as exc:
                raise ConfigError(f"{source}: line {i}: invalid value for {key!r}: {exc}")
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        return cls.from_text(text, source=path)

    def merged_under(self, override: "RunConfig") -> "RunConfig":
        """New config taking override's non-None values, else self's."""
        out = RunConfig()
        for f in fields(self):
            v = getattr(override, f.name)
            setattr(out, f.name, v if v is not None else getattr(self, f.name))
        return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biasbound",
        description="Bias bounds for adaptive data exploration, with Monte Carlo checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text)
               for name, (text, _) in _COMMANDS.items()}
    for p in parsers.values():
        p.add_argument("--config", default=None, help="flat key = value config file")
    for f in fields(RunConfig):
        flags = f.metadata["flags"] or ("--" + f.name.replace("_", "-"),)
        extras = dict(f.metadata["extras"])
        if "action" not in extras:
            extras["type"] = _flag_type(f.metadata["kind"])
        for command in f.metadata["commands"]:
            parsers[command].add_argument(*flags, dest=f.name, default=None, **extras)
    return ap


def _resolve(ns: argparse.Namespace) -> RunConfig:
    """Flags over the config file over the field defaults."""
    cli_cfg = RunConfig(**{f.name: getattr(ns, f.name, None) for f in fields(RunConfig)})
    base = RunConfig.from_file(ns.config) if ns.config else RunConfig()
    cfg = base.merged_under(cli_cfg)
    for f in fields(cfg):
        if getattr(cfg, f.name) is None:
            setattr(cfg, f.name, f.metadata["default"])
    return cfg


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        _COMMANDS[ns.command][1](_resolve(ns))
    except (ValueError, OSError, orz.NumericDivergence) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, orz.NumericDivergence) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 pass, 1 check failed, 2 input error, 3 numerical degeneracy.
All randomness flows through one generator seeded by --seed, so identical
invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import generate as gen
from . import isothermic as iso_mod
from . import koenigs, netio, qnet
from .errors import (
    CheckFailure,
    DegeneracyError,
    GeometryError,
    InputError,
)
from .geom import Tolerances
from .qnet import EdgeLabelling, VertexScalar

__all__ = ["main", "run"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERACY = 3


@functools.cache  # argparse builds a fresh Namespace per parse_args; nothing of one run stays
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-incidence", type=float, default=1e-9)
    common.add_argument("--tol-product", type=float, default=1e-8)
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--input", default="-", help="input document path, '-' for stdin")
    common.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = argparse.ArgumentParser(prog="koenigsnets", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common], help="generate a net document")
    g.add_argument("kind", choices=("grid", "moutard", "three-leg", "lightcone"))
    g.add_argument("--extents", type=int, nargs="+", required=True)
    g.add_argument("--ambient-dim", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise", type=float, default=0.05, help="coefficient spread")

    c = sub.add_parser("check", parents=[common], help="verify a property, exit 0 iff it holds")
    c.add_argument("kind", choices=("qnet", "koenigs", "circular", "isothermic", "geometric"))

    d = sub.add_parser("dualize", parents=[common], help="Koenigs dual net")
    d.add_argument("--base-black", type=float, default=1.0, help="nu at the black base vertex")
    d.add_argument("--base-white", type=float, default=1.0, help="nu at the white base vertex")

    ch = sub.add_parser("christoffel", parents=[common], help="Christoffel dual of an isothermic net")
    ch.add_argument("--limit-signs", action="store_true")

    li = sub.add_parser("lift", parents=[common], help="Moutard representative")
    li.add_argument("kind", choices=("homogeneous", "lightcone"))

    sub.add_parser("report", parents=[common], help="all applicable checks as JSON")
    return p


def _tol(args) -> Tolerances:
    return Tolerances(incidence=args.tol_incidence, product=args.tol_product)


def _read_doc(args) -> netio.NetDocument:
    if args.input == "-":
        return netio.loads(sys.stdin.read())
    return netio.load(args.input)


def _write_text(args, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _write_doc(args, doc: netio.NetDocument) -> None:
    _write_text(args, netio.saves(doc))


def _emit_report(args, name: str, payload: dict) -> None:
    if args.format == "json":
        _write_text(args, json.dumps({name: payload}, sort_keys=True) + "\n")
    else:
        verdict = "PASS" if payload.get("passed") else "FAIL"
        extras = " ".join(
            f"{k}={v}" for k, v in sorted(payload.items()) if k != "passed"
        )
        _write_text(args, f"{verdict} {name} {extras}".rstrip() + "\n")


def _cmd_generate(args) -> int:
    extents = tuple(args.extents)
    rng = np.random.default_rng(args.seed)
    if args.kind == "grid":
        net = gen.grid(extents, ambient_dim=args.ambient_dim)
        doc = netio.NetDocument.from_net(net)
    elif args.kind == "moutard":
        if len(extents) == 2:
            net = gen.random_koenigs_2d(extents, args.ambient_dim, rng, args.noise)
            nu = koenigs.integrate_nu(net, tol=_tol(args)).nu.values
        else:
            net, nu_scalar, _ = gen.random_koenigs_nd(extents, args.ambient_dim, rng, args.noise)
            nu = nu_scalar.values
        doc = netio.NetDocument.from_net(net, nu=nu)
    elif args.kind == "three-leg":
        if len(extents) != 2:
            raise InputError("three-leg generation supports m = 2")
        iso = gen.random_isothermic_2d(extents, args.ambient_dim, rng, args.noise)
        doc = netio.NetDocument.from_net(iso.net, s=iso.metric.values, labels=iso.labels.per_axis)
    else:  # lightcone
        mn, iso = gen.random_isothermic_lightcone(extents, args.ambient_dim, rng, args.noise)
        doc = netio.NetDocument.from_net(iso.net, s=iso.metric.values, labels=iso.labels.per_axis,
                                         moutard=_moutard_doc(mn))
    _write_doc(args, doc)
    return EXIT_PASS


def _cmd_check(args) -> int:
    tol = _tol(args)
    net = _read_doc(args).to_net()
    checks = {
        "qnet": qnet.check_qnet,
        "koenigs": koenigs.check_closedness,
        "circular": iso_mod.check_circular,
        "isothermic": iso_mod.check_isothermic,
        "geometric": koenigs.check_koenigs_2d_geometric if net.m == 2 else koenigs.check_koenigs_3d_geometric,
    }
    rep = checks[args.kind](net, tol)
    _emit_report(args, f"check_{args.kind}", rep.summary())
    return EXIT_PASS if rep.passed else EXIT_CHECK_FAILED


def _cmd_dualize(args) -> int:
    tol = _tol(args)
    net = _read_doc(args).to_net()
    black = (tuple(0 for _ in range(net.m)), args.base_black)
    white = (tuple(1 if ax == 0 else 0 for ax in range(net.m)), args.base_white)
    kd = koenigs.integrate_nu(net, black, white, tol)
    dual = koenigs.dualize_net(net, kd, tol=tol)
    _write_doc(args, netio.NetDocument.from_net(dual, nu=kd.nu.values))
    return EXIT_PASS


def _doc_to_isothermic(doc: netio.NetDocument, tol: Tolerances) -> iso_mod.IsothermicNet:
    net = doc.to_net()
    if doc.labels is not None and doc.s is not None:
        return iso_mod.IsothermicNet(
            net=net, labels=EdgeLabelling(doc.labels), metric=VertexScalar(doc.s_grid())
        )
    labels = iso_mod.recover_labels(net, tol)
    metric = iso_mod.recover_metric(net, tol=tol)
    return iso_mod.IsothermicNet(net=net, labels=labels, metric=metric)


def _cmd_christoffel(args) -> int:
    tol = _tol(args)
    iso = _doc_to_isothermic(_read_doc(args), tol)
    dual = iso_mod.christoffel(iso, limit_signs=args.limit_signs, tol=tol)
    _write_doc(
        args,
        netio.NetDocument.from_net(dual.net, s=dual.metric.values, labels=dual.labels.per_axis),
    )
    return EXIT_PASS


def _cmd_lift(args) -> int:
    tol = _tol(args)
    doc = _read_doc(args)
    net = doc.to_net()
    if args.kind == "homogeneous":
        nu = doc.nu_grid()
        if nu is None:
            kd = koenigs.integrate_nu(net, tol=tol)
        else:
            kd = koenigs.KoenigsData(nu=VertexScalar(nu))
        mn = koenigs.moutard_lift(net, kd, tol)
        doc.nu = kd.nu.values.reshape(-1)
    else:
        iso = _doc_to_isothermic(doc, tol)
        mn = iso_mod.lightcone_lift(iso, tol)
        doc.s = iso.metric.values.reshape(-1)
        doc.labels = iso.labels.per_axis
    doc.moutard = _moutard_doc(mn)
    _write_doc(args, doc)
    return EXIT_PASS


def _moutard_doc(mn) -> dict:
    return {
        "dim": mn.points.shape[-1],
        "points": mn.points.reshape(-1),
        "coeffs": {k: v.reshape(-1) for k, v in mn.coeffs.items()},
    }


def _cmd_report(args) -> int:
    tol = _tol(args)
    net = _read_doc(args).to_net()
    report = {}

    def record(name, check):
        try:
            report[name] = check(net, tol).summary()
        except CheckFailure as exc:
            report[name] = {"passed": False, "category": type(exc).__name__, "message": str(exc)}
        except DegeneracyError as exc:
            report[name] = {"passed": None, "category": type(exc).__name__, "message": str(exc)}

    record("qnet", qnet.check_qnet)
    record("koenigs_closedness", koenigs.check_closedness)
    geometric = koenigs.check_koenigs_2d_geometric if net.m == 2 else koenigs.check_koenigs_3d_geometric
    record("koenigs_geometric", geometric)
    record("circular", iso_mod.check_circular)
    if report["circular"].get("passed"):
        record("isothermic", iso_mod.check_isothermic)
        record("moebius", iso_mod.check_moebius_characterizations)
    _write_text(args, json.dumps(report, sort_keys=True) + "\n")
    return EXIT_PASS


_COMMANDS = {
    "generate": _cmd_generate,
    "check": _cmd_check,
    "dualize": _cmd_dualize,
    "christoffel": _cmd_christoffel,
    "lift": _cmd_lift,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CheckFailure as exc:
        _emit_error(args, exc)
        return EXIT_CHECK_FAILED
    except InputError as exc:
        _emit_error(args, exc)
        return EXIT_INPUT_ERROR
    except DegeneracyError as exc:
        _emit_error(args, exc)
        return EXIT_DEGENERACY
    except GeometryError as exc:
        _emit_error(args, exc)
        return EXIT_INPUT_ERROR


def _emit_error(args, exc: GeometryError) -> None:
    category = type(exc).__name__
    if getattr(args, "format", "text") == "json":
        sys.stderr.write(json.dumps({"error": {"category": category, "message": str(exc)}}) + "\n")
    else:
        sys.stderr.write(f"error {category}: {exc}\n")


def main() -> None:
    sys.exit(run())

"""Command-line interface.

Every subcommand prints a JSON payload on stdout and exits with 0 on
success, 2 on validation problems, 3 on semantic problems, 4 when an exact
computation would exceed the enumeration budget, and 5 when a query is not
identifiable from the requested data. When stdout is closed before the
payload is written, the command exits with 1 and prints no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache, partial

from .errors import (
    AbstraktError,
    DomainMismatch,
    NotClusterUnion,
    QuerySyntaxError,
    UnknownVariable,
    ValidationError,
)
from .scm import (
    format_decimal,
    format_rational,
    validate_scm,
)
from .valuation import (
    CounterfactualQuery,
    HardIntervention,
    OutcomeAtom,
    QueryTerm,
    joint_distribution,
    marginal_pushforward,
    prob_query,
)
from .abstraction import (
    SigmaMarker,
    _working_model,
    check_aic,
    load_clusters,
    lower_query,
)
from .projection import (
    FALLBACKS,
    POLICIES,
    _match_value,
    construct_projected_abstraction,
    high_from_doc,
    load_high,
    projected_sample,
    resolve_sigma,
    resolve_sigma_high,
    save_high,
    verify_partial_projection,
)
from .graphs import (
    build_cdag,
    build_projected_cdag,
    graph_to_doc,
    load_graph,
    to_dot,
)
from .identify import (
    abstract_identify,
    estimand_to_doc,
    evaluate_estimand,
    identify_effect,
    render_estimand,
    single_world_query,
)


# ---------------------------------------------------------------------------
# query parsing


@dataclass
class ParsedTerm:
    variable: str
    value: str
    interventions: tuple  # (name, value, sigma flag) triples


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, char):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == char:
            self.pos += 1
            return True
        return False

    def expect(self, char, what):
        self.skip_ws()
        if not self.take(char):
            raise QuerySyntaxError("expected %s" % what, self.pos)

    def word(self, what):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _WORD_CHARS:
            self.pos += 1
        if self.pos == start:
            raise QuerySyntaxError("expected %s" % what, start)
        return self.text[start:self.pos], start


def parse_query(text):
    """Parse a query of the form P(term, ... | term, ...) where a term is
    either VAR=value or VAR[iv; iv; ...]=value and an intervention is
    VAR=value or ~VAR=value. Returns the query's skeleton: a
    CounterfactualQuery whose terms are ParsedTerms (see bind_query)."""
    s = _Scanner(text)
    word, pos = s.word("'P'")
    if word != "P":
        raise QuerySyntaxError("query must start with 'P'", pos)
    s.expect("(", "'(' after P")

    def parse_term():
        name, _p = s.word("a variable name")
        ivs = []
        if s.take("["):
            while True:
                sigma = s.take("~")
                iv_name, _p = s.word("an intervened variable")
                s.expect("=", "'=' in intervention")
                iv_value, _p = s.word("an intervention value")
                ivs.append((iv_name, iv_value, sigma))
                if s.take(";"):
                    continue
                s.expect("]", "';' or ']' in intervention list")
                break
        s.expect("=", "'=' after the outcome variable")
        value, _p = s.word("an outcome value")
        return ParsedTerm(variable=name, value=value,
                          interventions=tuple(ivs))

    def parse_list():
        terms = [parse_term()]
        while s.take(","):
            terms.append(parse_term())
        return tuple(terms)

    terms = parse_list()
    conditioning = ()
    if s.take("|"):
        conditioning = parse_list()
    s.expect(")", "')' at the end of the query")
    s.skip_ws()
    if s.pos != len(s.text):
        raise QuerySyntaxError("unexpected trailing text", s.pos)
    return CounterfactualQuery(terms, conditioning)


# ---------------------------------------------------------------------------
# binding parsed queries against models, cluster maps, and graphs


def bind_query(parsed, bind):
    """Bind a parsed query name by name. ``bind(name, token, sigma)``
    returns the value one name=token pair stands for; ``sigma`` is True for
    ~NAME=token, False for a plain intervention and None for an outcome.
    Plain interventions become hard interventions, ~NAME=value becomes a
    SigmaMarker, and every outcome constrains its one name to one value."""
    def bind_term(t):
        hard = []
        soft = []
        for name, token, sigma in t.interventions:
            val = bind(name, token, sigma)
            if sigma:
                soft.append(SigmaMarker(cluster=name, label=val))
            else:
                hard.append(HardIntervention(name, val))
        val = bind(t.variable, t.value, None)
        outcome = OutcomeAtom(variables=(t.variable,),
                              accepted=frozenset({(val,)}))
        return QueryTerm(outcomes=(outcome,), hard=tuple(hard),
                         soft=tuple(soft))

    return parsed.map_terms(bind_term)


def _bind_label(cm, name, token, _sigma=None):
    """Bind a cluster name's token to one of the cluster's labels."""
    return _match_value(token, cm.cluster(name).labels(),
                        "value of cluster %s" % name)


# ---------------------------------------------------------------------------
# commands


@dataclass
class CommandResult:
    exit_code: int
    payload: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError("bad invocation: %s" % message)


@cache
def _build_parser():
    parser = _Parser(prog="abstrakt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scm=False, clusters=False, query=False, policy=False):
        if scm:
            p.add_argument("--scm", required=True, help="model JSON file")
        if clusters:
            p.add_argument("--clusters", required=clusters == "required",
                           help="cluster map JSON file")
        if query:
            p.add_argument("--query", required=True, help="query text")
        if policy:
            p.add_argument("--policy", default="general", choices=POLICIES)
            p.add_argument("--sigma-fallback", default=None,
                           choices=FALLBACKS, dest="sigma_fallback")
        p.add_argument("--budget", type=int, default=None,
                       help="cap on exact enumeration size")

    p = sub.add_parser("validate", help="check a model file")
    common(p, scm=True, clusters=True)

    p = sub.add_parser("eval", help="evaluate a query exactly")
    common(p, scm=True, clusters=True, query=True, policy=True)

    p = sub.add_parser("aic-check", help="find consistency violators")
    common(p, scm=True, clusters="required")

    p = sub.add_parser("abstract", help="construct the projected model")
    common(p, scm=True, clusters="required", policy=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("cdag", help="cluster diagram of a model")
    common(p, scm=True, clusters="required")
    p.add_argument("--project", action="store_true",
                   help="apply the violator rewrite rules")

    p = sub.add_parser("identify", help="identify an interventional query")
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--scm", help="model JSON file")
    p.add_argument("--clusters", help="cluster map JSON file")
    p.add_argument("--query", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("estimate",
                       help="identify and evaluate against observational data")
    common(p, scm=True, clusters="required", query=True)

    p = sub.add_parser("sample", help="draw member tuples for a cluster value")
    p.add_argument("--high", required=True, help="projected model JSON file")
    p.add_argument("--value", required=True, help="CLUSTER=label")
    p.add_argument("--context", default=None,
                   help='JSON like {"parents": {"Z": "z1"}}')
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="replay a projected model unit by unit")
    p.add_argument("--scm", required=True, help="low-level model JSON file")
    p.add_argument("--high", required=True, help="projected model JSON file")
    p.add_argument("--budget", type=int, default=None)
    return parser


def _value_payload(value):
    return {"rational": format_rational(value),
            "decimal": format_decimal(value)}


def _witness_payload(w):
    return {
        "parent": w.parent, "child": w.child, "label": w.label,
        "left": list(w.left), "right": list(w.right),
        "fixed": {k: v for k, v in sorted(w.others.items())},
        "unit": {"%s.%s" % k: v for k, v in sorted(w.unit.items())},
        "child_labels": list(w.outputs),
    }


def _projected_graph(scm, cm, budget):
    """The projected cluster diagram and the consistency report. The
    diagram comes from the model the check ran on, where the variables
    outside every cluster are already projected away."""
    report = check_aic(scm, cm, budget)
    cdag = build_cdag(report.scm.diagram(), cm)
    return build_projected_cdag(cdag, report.violators), report


def _load_document(path):
    """The model of a --scm file and, for a projected document (one with a
    delta), the projected model, else None. A projected document is read
    with high_from_doc, so that its checks apply to it here too."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "delta" in doc:
        high = high_from_doc(doc)
        return high.scm, high
    return validate_scm(doc), None


def _load_model(path):
    return _load_document(path)[0]


def cmd_validate(args):
    scm = _load_model(args.scm)
    diagram = scm.diagram()
    payload = {
        "model": args.scm,
        "variables": [{"name": v.name, "domain": list(v.domain)}
                      for v in scm.endogenous],
        "blocks": [{"name": b.name, "members": list(b.member_names()),
                    "support": scm.exogenous_support_size([i])}
                   for i, b in enumerate(scm.blocks)],
        "support": scm.exogenous_support_size(),
        "directed": [list(e) for e in diagram.directed],
        "bidirected": [list(e) for e in diagram.bidirected],
    }
    if args.clusters:
        cm = load_clusters(scm, args.clusters)
        payload["clusters"] = [
            {"name": c.name, "members": list(c.members),
             "values": [{"label": cv.label, "size": len(cv.tuples)}
                        for cv in c.values]}
            for c in cm.clusters]
        payload["excluded"] = list(cm.excluded)
    return CommandResult(0, payload)


def cmd_eval(args):
    """Names that are clusters bind to their labels and are lowered onto
    the member variables; the others bind to model variables. A plain
    intervention on a label covering several member tuples is rejected,
    since no single hard setting represents it. On a projected document
    without --clusters, ~NAME=label draws from the document's own sigma
    tables (resolve_sigma_high)."""
    scm, high = _load_document(args.scm)
    parsed = parse_query(args.query)
    cm = load_clusters(scm, args.clusters) if args.clusters else None

    def bind(name, token, sigma):
        if cm is not None and name in cm.by_name:
            label = _bind_label(cm, name, token)
            if sigma is False and len(cm.by_name[name].fiber(label)) > 1:
                raise NotClusterUnion(
                    "cluster value %s=%s covers several member tuples; "
                    "use ~%s=%s to draw from the reference distribution"
                    % (name, label, name, label), cluster=name)
            return label
        if name not in scm.var_index:
            raise UnknownVariable("unknown variable %r" % name,
                                  variable=name)
        if sigma and (high is None or cm is not None):
            raise DomainMismatch(
                "~ marks cluster values; %r is a plain variable" % name)
        return _match_value(token, scm.domain(name), "value of %s" % name)

    query = bind_query(parsed, bind)
    if cm is not None:
        query = resolve_sigma(scm, cm, lower_query(cm, query),
                              policy=args.policy, budget=args.budget,
                              fallback=args.sigma_fallback)
    elif high is not None:
        query = resolve_sigma_high(high, query)
    value = prob_query(scm, query, budget=args.budget)
    payload = {"query": args.query}
    payload.update(_value_payload(value))
    return CommandResult(0, payload)


def cmd_aic_check(args):
    scm = _load_model(args.scm)
    cm = load_clusters(scm, args.clusters)
    report = check_aic(scm, cm, budget=args.budget)
    payload = {
        "violators": list(report.violators),
        "witnesses": {name: _witness_payload(w)
                      for name, w in report.witnesses.items()},
    }
    return CommandResult(0, payload)


def cmd_abstract(args):
    scm = _load_model(args.scm)
    cm = load_clusters(scm, args.clusters)
    high = construct_projected_abstraction(
        scm, cm, policy=args.policy, budget=args.budget,
        fallback=args.sigma_fallback)
    save_high(high, args.output)
    payload = {
        "output": args.output,
        "policy": args.policy,
        "variables": [v.name for v in high.scm.endogenous],
        "violators": [name for name, s in high.splits.items() if s.violator],
        "blocks": [b.name for b in high.scm.blocks],
        "support": high.scm.exogenous_support_size(),
    }
    return CommandResult(0, payload)


def cmd_cdag(args):
    scm = _load_model(args.scm)
    cm = load_clusters(scm, args.clusters)
    if args.project:
        g, report = _projected_graph(scm, cm, args.budget)
        payload = graph_to_doc(g)
        payload["violators"] = list(report.violators)
    else:
        working = _working_model(scm, cm, args.budget)
        g = build_cdag(working.diagram(), cm)
        payload = graph_to_doc(g)
    payload["dot"] = to_dot(g)
    return CommandResult(0, payload)


def cmd_identify(args):
    parsed = parse_query(args.query)
    if args.graph:
        g = load_graph(args.graph)

        def bind(name, token, sigma):
            g.position(name)  # rejects a name that is not a node
            return token

        query = bind_query(parsed, bind)
        decision = identify_effect(g, single_world_query(query))
    elif args.scm and args.clusters:
        scm = _load_model(args.scm)
        cm = load_clusters(scm, args.clusters)
        g, _report = _projected_graph(scm, cm, args.budget)
        query = bind_query(parsed, partial(_bind_label, cm))
        decision = abstract_identify(g, query)
    else:
        raise ValidationError(
            "identify needs either --graph or both --scm and --clusters")
    return _decision_result(decision, args.query)


def _decision_result(decision, text):
    if not decision.identifiable:
        return CommandResult(5, {
            "identifiable": False,
            "witness": decision.witness,
            "query": text,
        })
    return CommandResult(0, {
        "identifiable": True,
        "estimand": render_estimand(decision.estimand),
        "tree": estimand_to_doc(decision.estimand),
        "query": text,
    })


def cmd_estimate(args):
    scm = _load_model(args.scm)
    cm = load_clusters(scm, args.clusters)
    g, report = _projected_graph(scm, cm, args.budget)
    query = bind_query(parse_query(args.query), partial(_bind_label, cm))
    decision = abstract_identify(g, query)
    result = _decision_result(decision, args.query)
    if decision.identifiable:
        table = joint_distribution(report.scm, cm.covered_variables(),
                                   budget=args.budget)
        pushed = marginal_pushforward(table, cm)
        result.payload.update(_value_payload(
            evaluate_estimand(decision.estimand, pushed)))
    return result


def cmd_sample(args):
    high = load_high(args.high)
    if "=" not in args.value:
        raise DomainMismatch("--value must look like CLUSTER=label")
    cname, token = args.value.split("=", 1)
    if cname not in high.splits:
        raise UnknownVariable("unknown cluster %r" % cname, cluster=cname)
    label = _match_value(token, high.splits[cname].labels(),
                         "value of cluster %s" % cname)
    context = None
    if args.context:
        try:
            context = json.loads(args.context)
        except ValueError as exc:
            raise DomainMismatch("--context is not valid JSON: %s" % exc)
    draws = projected_sample(high, cname, label, context=context,
                             seed=args.seed, n=args.n)
    counts = {}
    for d in draws:
        counts[str(d)] = counts.get(str(d), 0) + 1
    payload = {
        "cluster": cname,
        "label": label,
        "seed": args.seed,
        "n": args.n,
        "draws": [list(d) for d in draws],
        "counts": counts,
    }
    return CommandResult(0, payload)


def cmd_verify(args):
    low = _load_model(args.scm)
    high = load_high(args.high)
    result = verify_partial_projection(low, high, budget=args.budget)
    payload = {
        "checked": result.checked,
        "passed": result.passed,
        "mismatch_count": result.mismatch_count,
        "mismatches": result.mismatches,
    }
    return CommandResult(0 if result.passed else 3, payload)


_COMMANDS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "aic-check": cmd_aic_check,
    "abstract": cmd_abstract,
    "cdag": cmd_cdag,
    "identify": cmd_identify,
    "estimate": cmd_estimate,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except AbstraktError as err:
        return CommandResult(err.exit_code, {"error": err.to_payload()})
    except OSError as err:
        failure = ValidationError("cannot access file: %s" % err)
        return CommandResult(failure.exit_code,
                             {"error": failure.to_payload()})
    except json.JSONDecodeError as err:
        failure = ValidationError("input is not valid JSON: %s" % err)
        return CommandResult(failure.exit_code,
                             {"error": failure.to_payload()})


def main():
    result = run(sys.argv[1:])
    try:
        print(json.dumps(result.payload, indent=2, default=str))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so the flush at
        # exit fails no more, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()

"""Command-line interface.

Every subcommand prints a JSON payload on stdout and exits with 0 on
success, 2 on validation problems, 3 on semantic problems, 4 when an exact
computation would exceed the enumeration budget, and 5 when a query is not
identifiable from the requested data.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .errors import (
    AbstraktError,
    DomainMismatch,
    NotClusterUnion,
    QuerySyntaxError,
    UnknownVariable,
    UnsupportedData,
    ValidationError,
)
from .scm import (
    format_decimal,
    format_rational,
    induce_diagram,
    load_scm,
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
from .abstraction import SigmaMarker, check_aic, load_clusters
from .projection import (
    _context_parts,
    construct_projected_abstraction,
    load_high,
    projected_sample,
    resolve_sigma,
    save_high,
)
from .graphs import (
    build_cdag,
    build_projected_cdag,
    graph_to_doc,
    load_graph,
    to_dot,
)
from .identify import (
    IdQuery,
    abstract_identify,
    estimand_to_doc,
    evaluate_estimand,
    identify_effect,
    render_estimand,
)


# ---------------------------------------------------------------------------
# query parsing


@dataclass
class ParsedTerm:
    variable: str
    value: str
    interventions: tuple  # (name, value, sigma flag) triples
    position: int


@dataclass
class ParsedQuery:
    terms: tuple
    conditioning: tuple
    text: str


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

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
    VAR=value or ~VAR=value."""
    s = _Scanner(text)
    word, pos = s.word("'P'")
    if word != "P":
        raise QuerySyntaxError("query must start with 'P'", pos)
    s.expect("(", "'(' after P")

    def parse_term():
        name, start = s.word("a variable name")
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
                          interventions=tuple(ivs), position=start)

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
    return ParsedQuery(terms=terms, conditioning=conditioning, text=text)


# ---------------------------------------------------------------------------
# binding parsed queries against models, cluster maps, and graphs


def _match_value(token, candidates, what):
    hits = [c for c in candidates if str(c) == token]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise DomainMismatch(
            "value %r is not a %s; expected one of %s"
            % (token, what, ", ".join(map(str, candidates))))
    raise DomainMismatch("value %r is ambiguous in %s" % (token, what))


def bind_low_query(parsed, scm, cm=None):
    """Bind a parsed query against a low-level model. With a cluster map,
    names matching clusters constrain the member variables: outcomes accept
    the label's whole preimage, single-tuple labels become hard
    interventions, and ~NAME=label marks a reference-distribution
    intervention to be resolved under a policy."""
    def bind_term(t):
        outcomes = []
        hard = []
        soft = []
        for name, token, sigma in t.interventions:
            c = cm.by_name.get(name) if cm else None
            if c is not None:
                label = _match_value(token, c.labels(),
                                     "value of cluster %s" % name)
                fiber = c.fiber(label)
                if sigma:
                    soft.append(SigmaMarker(cluster=name, label=label))
                elif len(fiber) == 1:
                    for m, val in zip(c.members, fiber[0]):
                        hard.append(HardIntervention(m, val))
                else:
                    raise NotClusterUnion(
                        "cluster value %s=%s covers several member tuples; "
                        "use ~%s=%s to draw from the reference distribution"
                        % (name, label, name, label), cluster=name)
            else:
                if name not in scm.var_index:
                    raise UnknownVariable("unknown variable %r" % name,
                                          variable=name)
                if sigma:
                    raise DomainMismatch(
                        "~ marks cluster values; %r is a plain variable"
                        % name)
                val = _match_value(token, scm.domain(name),
                                   "value of %s" % name)
                hard.append(HardIntervention(name, val))
        name = t.variable
        c = cm.by_name.get(name) if cm else None
        if c is not None:
            label = _match_value(t.value, c.labels(),
                                 "value of cluster %s" % name)
            outcomes.append(OutcomeAtom(
                variables=tuple(c.members),
                accepted=frozenset(c.fiber(label)),
                label="%s=%s" % (name, label)))
        else:
            if name not in scm.var_index:
                raise UnknownVariable("unknown variable %r" % name,
                                      variable=name)
            val = _match_value(t.value, scm.domain(name), "value of %s" % name)
            outcomes.append(OutcomeAtom(
                variables=(name,), accepted=frozenset({(val,)}),
                label="%s=%s" % (name, val)))
        return QueryTerm(outcomes=tuple(outcomes), hard=tuple(hard),
                         soft=tuple(soft))

    return CounterfactualQuery(
        terms=tuple(bind_term(t) for t in parsed.terms),
        conditioning=tuple(bind_term(t) for t in parsed.conditioning))


def bind_high_query(parsed, cm):
    """Bind a parsed query at the cluster level: every name must be a
    cluster, values are labels, and both plain and ~ interventions set the
    cluster's label."""
    def bind_term(t):
        hard = []
        soft = []
        for name, token, sigma in t.interventions:
            c = cm.cluster(name)
            label = _match_value(token, c.labels(),
                                 "value of cluster %s" % name)
            if sigma or len(c.fiber(label)) > 1:
                soft.append(SigmaMarker(cluster=name, label=label))
            else:
                hard.append(HardIntervention(name, label))
        c = cm.cluster(t.variable)
        label = _match_value(t.value, c.labels(),
                             "value of cluster %s" % t.variable)
        outcome = OutcomeAtom(variables=(t.variable,),
                              accepted=frozenset({(label,)}),
                              label="%s=%s" % (t.variable, label))
        return QueryTerm(outcomes=(outcome,), hard=tuple(hard),
                         soft=tuple(soft))

    return CounterfactualQuery(
        terms=tuple(bind_term(t) for t in parsed.terms),
        conditioning=tuple(bind_term(t) for t in parsed.conditioning))


def bind_graph_query(parsed, g):
    """Bind a parsed query against a bare graph: values stay as written."""
    if len(parsed.terms) != 1:
        raise UnsupportedData(
            "identification handles single-world queries only; this one "
            "has %d terms" % len(parsed.terms))
    term = parsed.terms[0]
    for name, _tok, _sig in term.interventions:
        g.position(name)
    g.position(term.variable)
    do = {name: token for name, token, _sigma in term.interventions}
    outcome = {term.variable: term.value}
    given = {}
    for t in parsed.conditioning:
        ivs = {name: token for name, token, _sigma in t.interventions}
        if ivs != do:
            raise UnsupportedData(
                "conditioning must share the term's interventions; "
                "cross-world conditioning needs counterfactual data")
        g.position(t.variable)
        given[t.variable] = t.value
    return IdQuery(outcome=outcome, do=do, given=given)


# ---------------------------------------------------------------------------
# commands


@dataclass
class CommandResult:
    exit_code: int
    payload: dict
    diagnostics: list = field(default_factory=list)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError("bad invocation: %s" % message)


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
            p.add_argument("--policy", default="general",
                           choices=["agnostic", "markovian", "general"])
            p.add_argument("--sigma-fallback", default=None,
                           choices=["uniform"], dest="sigma_fallback")
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
    common(p, scm=True, clusters="required", query=True, policy=True)

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
    cdag = build_cdag(induce_diagram(scm), cm)
    report = check_aic(scm, cm, budget)
    return build_projected_cdag(cdag, report.violators), report


def cmd_validate(args):
    scm = load_scm(args.scm)
    diagram = induce_diagram(scm)
    payload = {
        "model": args.scm,
        "variables": [{"name": v.name, "domain": list(v.domain)}
                      for v in scm.endogenous],
        "blocks": [{"name": b.name, "members": list(b.member_names()),
                    "support": len(b.support())} for b in scm.blocks],
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
    scm = load_scm(args.scm)
    parsed = parse_query(args.query)
    if args.clusters:
        cm = load_clusters(scm, args.clusters)
        query = bind_low_query(parsed, scm, cm)
        has_markers = any(
            isinstance(a, SigmaMarker)
            for t in query.terms + query.conditioning for a in t.soft)
        if has_markers:
            query = resolve_sigma(scm, cm, query, policy=args.policy,
                                  budget=args.budget,
                                  fallback=args.sigma_fallback)
    else:
        query = bind_low_query(parsed, scm, None)
    value = prob_query(scm, query, budget=args.budget)
    payload = {"query": args.query}
    payload.update(_value_payload(value))
    return CommandResult(0, payload)


def cmd_aic_check(args):
    scm = load_scm(args.scm)
    cm = load_clusters(scm, args.clusters)
    report = check_aic(scm, cm, budget=args.budget)
    payload = {
        "violators": list(report.violators),
        "witnesses": {name: _witness_payload(w)
                      for name, w in report.witnesses.items()},
    }
    return CommandResult(0, payload)


def cmd_abstract(args):
    scm = load_scm(args.scm)
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
    scm = load_scm(args.scm)
    cm = load_clusters(scm, args.clusters)
    if args.project:
        g, report = _projected_graph(scm, cm, args.budget)
        payload = graph_to_doc(g)
        payload["violators"] = list(report.violators)
    else:
        g = build_cdag(induce_diagram(scm), cm)
        payload = graph_to_doc(g)
    payload["dot"] = to_dot(g)
    return CommandResult(0, payload)


def cmd_identify(args):
    parsed = parse_query(args.query)
    if args.graph:
        g = load_graph(args.graph)
        idq = bind_graph_query(parsed, g)
        decision = identify_effect(g, idq)
    elif args.scm and args.clusters:
        scm = load_scm(args.scm)
        cm = load_clusters(scm, args.clusters)
        g, _report = _projected_graph(scm, cm, args.budget)
        query = bind_high_query(parsed, cm)
        decision = abstract_identify(cm, g, query)
    else:
        raise ValidationError(
            "identify needs either --graph or both --scm and --clusters")
    if not decision.identifiable:
        return CommandResult(5, {
            "identifiable": False,
            "witness": decision.witness,
            "query": args.query,
        })
    return CommandResult(0, {
        "identifiable": True,
        "estimand": render_estimand(decision.estimand),
        "tree": estimand_to_doc(decision.estimand),
        "query": args.query,
    })


def cmd_estimate(args):
    scm = load_scm(args.scm)
    cm = load_clusters(scm, args.clusters)
    working = scm
    if cm.excluded:
        from .projection import project_full
        working = project_full(scm, cm.covered_variables(), args.budget)
    g, _report = _projected_graph(working, cm, args.budget)
    parsed = parse_query(args.query)
    query = bind_high_query(parsed, cm)
    decision = abstract_identify(cm, g, query)
    if not decision.identifiable:
        return CommandResult(5, {
            "identifiable": False,
            "witness": decision.witness,
            "query": args.query,
        })
    table = joint_distribution(working, cm.covered_variables(),
                               budget=args.budget)
    pushed = marginal_pushforward(table, cm)
    value = evaluate_estimand(decision.estimand, pushed)
    payload = {
        "identifiable": True,
        "estimand": render_estimand(decision.estimand),
        "tree": estimand_to_doc(decision.estimand),
        "query": args.query,
    }
    payload.update(_value_payload(value))
    return CommandResult(0, payload)


def cmd_sample(args):
    high = load_high(args.high)
    if "=" not in args.value:
        raise DomainMismatch("--value must look like CLUSTER=label")
    cname, token = args.value.split("=", 1)
    if cname not in high.splits:
        raise UnknownVariable("unknown cluster %r" % cname, cluster=cname)
    split = high.splits[cname]
    label = _match_value(token, split.labels, "value of cluster %s" % cname)
    context = None
    if args.context:
        try:
            raw = json.loads(args.context)
        except ValueError as exc:
            raise DomainMismatch("--context is not valid JSON: %s" % exc)
        parents, shared = _context_parts(raw, split.rho_members)
        for pname, ptoken in parents.items():
            if pname not in high.splits:
                raise UnknownVariable("unknown cluster %r in context" % pname,
                                      cluster=pname)
            parents[pname] = _match_value(
                str(ptoken), high.splits[pname].labels,
                "value of cluster %s" % pname)
        for key, mtoken in shared.items():
            if key not in split.rho_members:
                raise UnknownVariable(
                    "%r is not a shared noise member of %s" % (key, cname),
                    member=key)
            shared[key] = _match_value(str(mtoken),
                                       high.scm.member_index[key].domain,
                                       "value of %s.%s" % key)
        context = (parents, shared)
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
    from .projection import verify_partial_projection
    low = load_scm(args.scm)
    high = load_high(args.high)
    result = verify_partial_projection(low, high, budget=args.budget)
    payload = {
        "checked": result.checked,
        "passed": result.passed,
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
    try:
        result = run(sys.argv[1:])
    except SystemExit:
        raise
    print(json.dumps(result.payload, indent=2, default=str))
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()

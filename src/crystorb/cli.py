"""Command-line front end.

Commands: verify | realize | even | jstruct | action | teich | platonic,
given before, between or after the options.  Input is a JSON document
(--input PATH or - for stdin); rationals travel as strings "p/q", complex
numbers as ["re", "im"] pairs.  Reports are text or canonical JSON (sorted
keys), so identical input produces byte-identical output.  This
module is the one place a document is validated: a bad field raises
ValidationError naming its JSON path or flag, and the library does not
check it again.  `parse_args` reads the command line with argparse's
grammar for these options; a usage error prints the fixed USAGE line and
`crystorb: error: <message>`.
Exit codes: 0 success; 1 a ValidationError, an OSError or a usage error;
2 any other exception, ValueError included, as an internal error.
"""

from __future__ import annotations

import json
import re
import sys
from decimal import ROUND_HALF_UP, Context
from fractions import Fraction
from math import gcd

from . import crystal, hodge, orbpi, quotient
from .crystal import CrystData
from .cyclo import real_enclosure
from .exactla import IntMatrix
from .groupcore import DEFAULT_ORDER_BOUND, ExceedsBound, SingularGenerator

F = Fraction

COMMANDS = ("verify", "realize", "even", "jstruct", "action", "teich", "platonic")
DEFAULT_PRECISION = 128


class ValidationError(Exception):
    """Bad input; the message carries the JSON path of the offense."""


class JobSpec:
    """One validated CLI job: command, parsed document, output format, and
    the effective bound and precision (flags override document options)."""

    def __init__(self, command, document, output_format, bound, precision):
        self.command = command
        self.document = document
        self.output_format = output_format
        self.bound = bound
        self.precision = precision

    @staticmethod
    def build(command, document, output_format, bound=None, precision=None):
        _check_document(document)
        for name, value in (("bound", bound), ("precision", precision)):
            if value is not None:
                _check_range(name, value, f"--{name}")
        options = document.get("options", {})
        default_bound = 10000 if command == "platonic" else DEFAULT_ORDER_BOUND
        return JobSpec(
            command=command,
            document=document,
            output_format=output_format,
            bound=bound if bound is not None else options.get("bound", default_bound),
            precision=precision if precision is not None
                      else options.get("precision", DEFAULT_PRECISION),
        )

    def run(self):
        opts = {"bound": self.bound, "precision": self.precision}
        result = _HANDLERS[self.command](self.document, opts)
        return {"command": self.command, "options": opts, "result": result}


# ---------------------------------------------------------------------------
# parsing and validation

_TOP_KEYS = {"rank", "generators", "omega", "cocycle", "triple",
             "presentation", "loops", "multiplicities", "options"}
_GEN_KEYS = {"linear", "translation"}
_OPTION_KEYS = {"bound", "precision"}
# precision, in bits, sets the digits decimal_str prints: 17 at the floor of 64
_FLOORS = {"bound": 1, "precision": 64}
# the largest lattice rank read: output alone grows as rank^2
MAX_RANK = 128
# the most bits of precision: an enclosure's cost grows faster than its bits
MAX_PRECISION = 16384
# the most letters a platonic job's relators may total: every relator is
# built in full before the enumeration, and the report prints every letter
MAX_LETTERS = 10 ** 6
# the most fixed points and subtorus components `action` lists (-I on Z^2n: 2^2n)
MAX_COMPONENTS = 10 ** 5


def _fail(path, message):
    raise ValidationError(f"{path}: {message}")


def _check_range(name, value, path):
    if value < _FLOORS[name]:
        _fail(path, f"must be at least {_FLOORS[name]}")
    if name == "precision" and value > MAX_PRECISION:
        _fail(path, f"must be at most {MAX_PRECISION}")


def _is_int(x):
    """A JSON integer: Python's bool is an int, JSON's true/false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_rational(value, path):
    if _is_int(value):
        return F(value)
    if isinstance(value, str):
        try:
            if "e" not in value and "E" not in value:   # Fraction expands 1e-5000 in full
                return F(value)
        except (ValueError, ZeroDivisionError):
            pass
        _fail(path, f"not a rational number: {value!r}")
    _fail(path, "rationals must be integers or 'p/q' strings")


def _check_document(doc, path="input"):
    if not isinstance(doc, dict):
        _fail(path, "document must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            _fail(f"{path}.{key}", "unknown field")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        _fail(f"{path}.options", "must be an object")
    for key in options:
        if key not in _OPTION_KEYS:
            _fail(f"{path}.options.{key}", "unknown option")
        if not _is_int(options[key]):
            _fail(f"{path}.options.{key}", "must be an integer")
    for key in _FLOORS:
        if key in options:
            _check_range(key, options[key], f"{path}.options.{key}")


def parse_cryst_data(doc, path="input") -> CrystData:
    if "rank" not in doc:
        _fail(f"{path}.rank", "missing")
    rank = doc["rank"]
    if not _is_int(rank) or rank < 1:
        _fail(f"{path}.rank", "must be a positive integer")
    if rank > MAX_RANK:
        _fail(f"{path}.rank", f"must be at most {MAX_RANK}")
    gens = doc.get("generators", [])
    if not isinstance(gens, list):
        _fail(f"{path}.generators", "must be a list")
    parsed = []
    for gi, g in enumerate(gens):
        gpath = f"{path}.generators[{gi}]"
        if not isinstance(g, dict):
            _fail(gpath, "must be an object")
        for key in g:
            if key not in _GEN_KEYS:
                _fail(f"{gpath}.{key}", "unknown field")
        lin = g.get("linear")
        if not (isinstance(lin, list) and len(lin) == rank and
                all(isinstance(row, list) and len(row) == rank for row in lin)):
            _fail(f"{gpath}.linear", f"must be a {rank}x{rank} integer matrix")
        for i, row in enumerate(lin):
            for j, x in enumerate(row):
                if not _is_int(x):
                    _fail(f"{gpath}.linear[{i}][{j}]", "must be an integer")
        trans = g.get("translation", ["0"] * rank)
        if not (isinstance(trans, list) and len(trans) == rank):
            _fail(f"{gpath}.translation", f"must have {rank} entries")
        tvec = tuple(parse_rational(x, f"{gpath}.translation[{i}]")
                     for i, x in enumerate(trans))
        parsed.append((IntMatrix.from_rows(lin), tvec))
    return CrystData.make(rank, parsed)


def parse_omega(doc, path="input.omega"):
    """The period matrix: a tuple of 2n rows of n Gaussian rationals."""
    om = doc["omega"]
    if not (isinstance(om, list) and om and all(isinstance(r, list) for r in om)):
        _fail(path, "must be a nonempty list of rows")
    cols = len(om[0])
    if len(om) != 2 * cols:
        _fail(path, f"must have shape 2n x n, got {len(om)}x{cols}")
    gauss, i_unit = hodge.GAUSS, hodge.GAUSS.zeta()
    rows = []
    for i, row in enumerate(om):
        if len(row) != cols:
            _fail(f"{path}[{i}]", "ragged row")
        entries = []
        for j, z in enumerate(row):
            zpath = f"{path}[{i}][{j}]"
            if not (isinstance(z, list) and len(z) == 2):
                _fail(zpath, "complex entries are [re, im] pairs")
            entries.append(gauss(parse_rational(z[0], zpath))
                           + gauss(parse_rational(z[1], zpath)) * i_unit)
        rows.append(tuple(entries))
    return tuple(rows)


def _build_group(data: CrystData, bound):
    """Verify, absorbing pure translations into the lattice if there are any."""
    try:
        res = crystal.normalize_action(data, bound=bound)
    except SingularGenerator as exc:
        _fail(f"input.generators[{exc.index}].linear", "must be invertible")
    except ExceedsBound as exc:
        _fail("input.generators", str(exc))
    return res.group, res


# ---------------------------------------------------------------------------
# serialization

def frac_str(x):
    return str(F(x))


def vec_str(v):
    return [frac_str(x) for x in v]


def system_str(vs):
    """Each u_g of a vector system, as frac_str prints it: its integer
    numerators over vs.den, reduced by one gcd."""
    den = vs.den
    out = []
    for num in vs.numerators:
        row = []
        for x in num:
            d = gcd(x, den)
            row.append(str(x // d) if d == den else f"{x // d}/{den // d}")
        out.append(row)
    return out


def mat_str(rows):
    return [[frac_str(x) for x in row] for row in rows]


def decimal_str(x, precision_bits):
    """x, a real cyclotomic number, rounded half up to `digits` significant
    digits from an enclosure refined until both ends round alike; fixed
    notation for exponents in (-(digits // 3), digits), else d.ddde+N."""
    digits = max(6, int(precision_bits * 0.30103) - 2)
    context = Context(prec=digits, rounding=ROUND_HALF_UP)
    p, lo, hi = precision_bits, 0, 1
    while lo != hi:
        lo, hi = (context.divide(r.numerator, r.denominator) for r in real_enclosure(x, p))
        p *= 2
    if not lo:
        return "0.0"
    e = lo.adjusted()
    if not -(digits // 3) < e < digits:
        return f"{lo:.{digits - 1}e}"
    # with no decimals left, the point is still printed
    return f"{lo:.{digits - 1 - e}f}" + "." * (e == digits - 1)


def structure_report(structure, precision_bits):
    """An exact J as "p/q" strings; an algebraic J as the power-basis
    coordinates of its entries in Q(zeta_N), with decimals rendered from
    them.  Both residuals are exactly 0."""
    out = {"exists": True, "mode": structure.mode, "precision_bits": precision_bits,
           "j_squared_residual": "0", "commutator_residual": "0"}
    if structure.mode == "exact":
        out["matrix"] = mat_str(structure.entries)
    else:
        out["field_order"] = structure.field_order
        out["zeta_coordinates"] = [[vec_str(x.coeffs) for x in row]
                                   for row in structure.entries]
        out["matrix"] = [[decimal_str(x, precision_bits) for x in row]
                         for row in structure.entries]
    return out


def isotypic_report(report):
    return [
        {
            "labels": list(c.labels),
            "type": c.fs_type,
            "degree": c.degree,
            "multiplicity": c.multiplicity,
            "complex_dim": c.complex_dim,
            "parity": "even" if c.admits_complex_structure else "odd",
        }
        for c in report.classes
    ]


def _printable(what, numbers):
    try:   # str() of an integer past Python's digit limit raises ValueError
        str(max(map(abs, numbers), default=0))
    except ValueError:
        _fail("input.generators", f"{what} has entries too long to print")


def group_report(group, normalization):
    elements = group.group.elements
    # each u_g entry is a fraction in [0, 1) over a divisor of den
    _printable("the group", [group.den] + [x for g in elements for x in g.entries])
    out = {
        "rank": group.rank,
        "order": group.order(),
        "elements": [{"linear": g.to_lists(), "translation": t}
                     for g, t in zip(elements, system_str(group))],
        "normalized": normalization.changed,
    }
    if normalization.changed:
        out["notice"] = ("pure translations outside the lattice were absorbed; "
                         "coordinates were rebased")
        rows = normalization.basis_change + normalization.absorbed
        _printable("the absorbed translation lattice",
                   [y for row in rows for x in row for y in (x.numerator, x.denominator)])
        out["basis_change"] = mat_str(normalization.basis_change)
        out["absorbed_translations"] = [vec_str(t) for t in normalization.absorbed]
    return out


# ---------------------------------------------------------------------------
# command handlers (each returns the result dict)

def cmd_verify(doc, opts):
    group, normalization = _build_group(parse_cryst_data(doc), opts["bound"])
    torsion = crystal.is_torsion_free(group)
    out = group_report(group, normalization)
    out["torsion_free"] = torsion.torsion_free
    out["torsion_witnesses"] = list(torsion.offenders)
    return out


def cmd_realize(doc, opts):
    group, normalization = _build_group(parse_cryst_data(doc), opts["bound"])
    _printable("the vector system", [group.den])
    if "cocycle" in doc:
        try:
            averaged = crystal.affine_realization(group.group, _parse_cocycle(doc, group))
        except crystal.CocycleViolation as exc:
            _fail("input.cocycle", str(exc))
    else:
        averaged = crystal.affine_realization(group.group, crystal.cocycle_from_system(group))
    eq = crystal.realizations_equivalent(group, averaged)
    _printable("the shift witness", [y for x in eq.shift for y in (x.numerator, x.denominator)])
    return {
        "input_system": system_str(group),
        "averaged_system": system_str(averaged),
        "cocycle_consistent": True,     # affine_realization raised otherwise
        "equivalent": eq.equivalent,
        "shift_witness": vec_str(eq.shift) if eq.equivalent else None,
        "normalized": normalization.changed,
    }


def _parse_cocycle(doc, group):
    entries = doc["cocycle"]
    path = "input.cocycle"
    if not isinstance(entries, list):
        _fail(path, "must be a list of [g, h, vector] triples")
    values = {}
    n = group.order()
    for k, item in enumerate(entries):
        ipath = f"{path}[{k}]"
        if not (isinstance(item, list) and len(item) == 3):
            _fail(ipath, "must be [g, h, vector]")
        g, h, vec = item
        if not (_is_int(g) and _is_int(h) and 0 <= g < n and 0 <= h < n):
            _fail(ipath, f"element indices must lie in [0, {n})")
        if not (isinstance(vec, list) and len(vec) == group.rank
                and all(_is_int(x) for x in vec)):
            _fail(ipath, "cocycle values are integer vectors of lattice rank")
        if (g, h) in values:
            _fail(ipath, f"repeats the pair {(g, h)}")
        values[(g, h)] = tuple(vec)
    for g in range(n):
        for h in range(n):
            values.setdefault((g, h), tuple([0] * group.rank))
    return crystal.ExtensionCocycle(group.group, values)


def cmd_even(doc, opts):
    group, normalization = _build_group(parse_cryst_data(doc), opts["bound"])
    ev = hodge.is_even(group)
    return {
        "even": ev.even,
        "rank": group.rank,
        "classes": isotypic_report(ev.report),
        "odd_witness": list(ev.odd_witness),
        "normalized": normalization.changed,
    }


def cmd_jstruct(doc, opts):
    group, _ = _build_group(parse_cryst_data(doc), opts["bound"])
    ev = hodge.is_even(group)
    if not ev.even:
        return {"exists": False, "witness": list(ev.odd_witness), "even": False}
    try:
        structure = hodge.invariant_complex_structure(group, ev)
    except hodge.UnsupportedSample:
        # J exists, but is not built
        return {"exists": True, "mode": "unsupported", "even": True}
    return {**structure_report(structure, opts["precision"]), "even": True}


def cmd_action(doc, opts):
    group, _ = _build_group(parse_cryst_data(doc), opts["bound"])
    ev = hodge.is_even(group)
    if not ev.even:
        raise ValidationError(
            "input.generators: the action admits no invariant complex "
            f"structure (odd classes: {', '.join(ev.odd_witness)}); "
            "the complex classification is undefined")
    components = sum(sol.count for sol in group.fixed_sets.values())
    if components > MAX_COMPONENTS:
        _fail("input.generators", f"the class representatives fix {components} points "
              f"and subtorus components, more than {MAX_COMPONENTS} to list")
    desc = quotient.orbifold_descriptor(group, ev)
    _printable("a divisor base point", [y for c in desc.divisor_classes
                                        for x in c.representative.base
                                        for y in (x.numerator, x.denominator)])
    cls, fact = desc.classification, desc.factorization
    return {
        "classification": cls.kind,
        "evidence": [list(e) for e in cls.evidence],
        "pseudoreflections": list(desc.pseudoreflections),
        "gpr_order": fact.gpr_order,
        "gpr_index": fact.index,
        "quasi_etale_certified": fact.quasi_etale,
        "factorization_audit": [list(a) for a in fact.audit],
        "divisor_classes": [
            {
                "multiplicity": c.multiplicity,
                "orbit_size": c.orbit_size,
                "base_point": vec_str(c.representative.base),
                "directions": [list(b) for b in c.representative.basis],
            }
            for c in desc.divisor_classes
        ],
        "stratum_summary": [
            {"complex_codim": key[0], "stabilizer_order": key[1], "count": count}
            for key, count in desc.stratum_summary
        ],
    }


def cmd_teich(doc, opts):
    group, _ = _build_group(parse_cryst_data(doc), opts["bound"])
    ev = hodge.is_even(group)
    out = {"even": ev.even}
    if "omega" in doc:
        om = parse_omega(doc)
        if len(om) != group.rank:
            _fail("input.omega", f"row count must equal the rank {group.rank}")
        try:
            out["omega_in_parameter_space"] = hodge.omega_in_T(om)
        except hodge.DegenerateOmega:
            out["omega_in_parameter_space"] = None
            out["omega_degenerate"] = True
    if not ev.even:
        out["types"] = []
        out["odd_witness"] = list(ev.odd_witness)
        return out
    types = hodge.hodge_types(ev)
    rows = []
    for t in types:
        entry = {
            "splits": [
                {"labels": list(s.labels), "type": s.fs_type,
                 "d_chi": s.dims[0], "d_chibar": s.dims[1]}
                for s in t.splits
            ],
            "dimension": hodge.component_dimension(t),
        }
        try:
            _, action = hodge.sample_subspace(group, t)
            entry["tangent_dimension"] = hodge.tangent_dimension(action)
            entry["tangent_agrees"] = entry["tangent_dimension"] == entry["dimension"]
        except hodge.UnsupportedSample:
            entry["tangent_dimension"] = None
            entry["tangent_agrees"] = None
        rows.append(entry)
    out["types"] = rows
    out["count"] = len(rows)
    return out


_PLATONIC_CLASSES = {
    (2, 3, 3): "tetrahedral family",
    (2, 3, 4): "octahedral family",
    (2, 3, 5): "icosahedral family",
}


def cmd_platonic(doc, opts):
    if "triple" in doc:
        triple = doc["triple"]
        if not (isinstance(triple, list) and len(triple) == 3
                and all(_is_int(m) for m in triple)):
            _fail("input.triple", "must be three integers")
        if min(triple) < 2:
            _fail("input.triple", "multiplicities must be >= 2")
        finite = orbpi.platonic_check(*triple)
        # the table can close only for a finite triple with every m_i
        # within the bound: c_i has order exactly m_i in the von Dyck group,
        # and a triple that fails the inequality presents a Euclidean or
        # hyperbolic triangle group, which is infinite.  Otherwise no
        # relator c_i^m_i is built or enumerated.  The letter limit is
        # checked first, so that its exit code does not depend on `finite`
        order = None
        if max(triple) <= opts["bound"]:
            if 3 + sum(triple) > MAX_LETTERS:
                _fail("input.triple", f"the relators would pass {MAX_LETTERS} letters")
            if finite:
                order = orbpi.coset_enumerate(
                    orbpi.central_line_quotient(*triple), bound=opts["bound"])
        key = tuple(sorted(triple))
        if key[:2] == (2, 2):
            family = "dihedral family (2,2,n)"
        else:
            family = _PLATONIC_CLASSES.get(key)
        return {
            "triple": list(triple),
            "finite": finite,
            "class": family,
            "quotient_order": order,
            # an enumeration that ran out of bound neither agrees nor disagrees
            "enumeration_agrees": None if order is None else finite,
        }
    if "presentation" in doc:
        p = _parse_presentation(doc["presentation"])
        if "loops" in doc or "multiplicities" in doc:
            loops = doc.get("loops", [])
            mults = doc.get("multiplicities", [])
            if not isinstance(loops, list):
                _fail("input.loops", "must be a list of words")
            if not isinstance(mults, list):
                _fail("input.multiplicities", "must be a list of integers")
            for i, m in enumerate(mults):
                if not (_is_int(m) and m >= 1):
                    _fail(f"input.multiplicities[{i}]", "must be an integer >= 1")
            if len(loops) != len(mults):
                _fail("input.multiplicities", "one multiplicity per loop required")
            loops = [_word(w, len(p.generators), f"input.loops[{i}]")
                     for i, w in enumerate(loops)]
            letters = sum(map(len, p.relators))
            for i, (loop, m) in enumerate(zip(loops, mults)):
                letters += len(loop) * m if m > 1 else 0
                if letters > MAX_LETTERS:
                    _fail(f"input.multiplicities[{i}]",
                          f"the relators would pass {MAX_LETTERS} letters")
            p = orbpi.orbifold_quotient(p, loops, mults)
        order = orbpi.coset_enumerate(p, bound=opts["bound"])
        return {
            "generators": list(p.generators),
            "relators": [list(w) for w in p.relators],
            "order": order,
            "verdict": "finite" if order is not None else "unknown",
        }
    _fail("input", "platonic needs either a 'triple' or a 'presentation'")


def _parse_presentation(raw, path="input.presentation"):
    if not isinstance(raw, dict):
        _fail(path, "must be an object with generators and relators")
    gens = raw.get("generators")
    rels = raw.get("relators", [])
    if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
        _fail(f"{path}.generators", "must be a list of names")
    if not isinstance(rels, list):
        _fail(f"{path}.relators", "must be a list of words")
    words = [_word(w, len(gens), f"{path}.relators[{i}]") for i, w in enumerate(rels)]
    return orbpi.Presentation.make(gens, words)


def _word(w, ngens, path):
    """A relator or loop: signed generator indices, freely reduced before
    the letters are read, so a cancelling pair such as [2, -2] is dropped."""
    if not (isinstance(w, list) and all(_is_int(x) for x in w)):
        _fail(path, "words are lists of signed indices")
    w = orbpi.free_reduce(w)
    if any(x == 0 or abs(x) > ngens for x in w):
        _fail(path, "letter out of range")
    return w


_HANDLERS = {
    "verify": cmd_verify,
    "realize": cmd_realize,
    "even": cmd_even,
    "jstruct": cmd_jstruct,
    "action": cmd_action,
    "teich": cmd_teich,
    "platonic": cmd_platonic,
}


def _render_text(report, out):
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    out.write(f"{pad}{k}:\n")
                    walk(v, indent + 1)
                else:
                    out.write(f"{pad}{k}: {v}\n")
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    out.write(f"{pad}-\n")
                    walk(v, indent + 1)
                else:
                    out.write(f"{pad}- {v}\n")
        else:
            out.write(f"{pad}{value}\n")

    out.write(f"{report['command']}:\n")
    walk(report["result"], 1)


# ---------------------------------------------------------------------------
# the command line

USAGE = ("usage: crystorb [-h] {" + ",".join(COMMANDS) + "} --input INPUT "
         "[--format {text,json}] [--bound BOUND] [--precision PRECISION]")
HELP = USAGE + """

exact computations with crystallographic groups and finite group actions on
complex tori; the command may come before, between or after the options

options:
  -h, --help             show this help message and exit
  --input INPUT          path to a JSON input document, or - for stdin
  --format {text,json}   report format (default: text)
  --bound BOUND          closure or coset-enumeration bound (default: the document's)
  --precision PRECISION  bits of the printed decimals (default: the document's, else 128)
"""
# a unique prefix of a long option names it, and -h may run into further
# h's (-hh); every option but the help takes one value
_INT_OPTIONS = ("--bound", "--precision")
_LONG = ("--help", "--input", "--format") + _INT_OPTIONS
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageError(Exception):
    """A bad command line; the message follows `crystorb: error: `."""


def _option(token):
    """How argparse reads a token before `--`: None for a positional, else
    (option, the value given after "=" or None), option "" when unknown."""
    if not token.startswith("-") or token == "-":
        return None
    head, eq, value = token.partition("=")
    if token in _LONG or token == "-h":
        return token, None
    if eq and (head in _LONG or head == "-h"):
        return head, value
    if token.startswith("--"):
        names = [name for name in _LONG if name.startswith(head)]
        if len(names) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(names)}")
        if names:
            return names[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _command(token):
    if token not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {token!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    return token


def parse_args(argv):
    """The fields command, input, format, bound and precision of a
    command line, or None when it asks for help; UsageError if it is bad.

    The grammar is argparse's for one positional command and the options
    of USAGE: the command may stand before, between or after the options;
    a value follows its option or an "="; a token that reads as an option
    is no value, while a negative number or "-" is; "--" ends the options;
    a repeated option keeps its last value.  An ambiguous option (--=x)
    is reported first; then tokens are read left to right and the first
    fault found is reported, then a missing command or --input, then
    unrecognized tokens.  One departure: after "=" a "--" is
    the value "--", where argparse before 3.13 stores an empty list."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(token) for token in argv[:end]]
    fields = {"command": None, "input": None, "format": "text",
              "bound": None, "precision": None}
    extras = []
    last = max((i for i, o in enumerate(options) if o is not None), default=-1)
    i = 0
    while i <= last:
        if options[i] is None:   # a positional: the command once, then unrecognized
            if fields["command"] is None:
                fields["command"] = _command(argv[i])
            else:
                extras.append(argv[i])
            i += 1
            continue
        (name, value), i = options[i], i + 1
        if not name:
            extras.append(argv[i - 1])
        elif name in ("-h", "--help"):
            if name == "-h" and value:
                value = value.lstrip("h") or None   # -hh is -h -h
            if value is None:
                return None
            raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
        else:
            if value is None:
                if i == end or options[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                value, i = argv[i], i + 1
            if name in _INT_OPTIONS:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {name}: invalid int value: {value!r}") from None
            elif name == "--format" and value not in ("text", "json"):
                raise UsageError(f"argument --format: invalid choice: {value!r} "
                                 "(choose from 'text', 'json')")
            fields[name[2:]] = value
    if fields["command"] is None:
        # the command, with a "--" just before or after it
        i += i == end
        if i < len(argv):
            fields["command"] = _command(argv[i])
            i += 1 + (i + 1 == end)
    extras += argv[i:]
    missing = [name for name in ("command", "--input") if fields[name.lstrip("-")] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return fields


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:   # a usage error is bad input
        sys.stderr.write(f"{USAGE}\ncrystorb: error: {exc}\n")
        return 1
    if args is None:
        sys.stdout.write(HELP)
        return 0
    try:
        try:
            if args["input"] == "-":
                raw = sys.stdin.read()
            else:
                with open(args["input"], "r", encoding="utf-8") as fh:
                    raw = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input: not UTF-8 ({exc})") from exc
        except OSError as exc:
            raise ValidationError(f"--input: {exc}") from exc
        try:   # malformed, nested too deeply, or an integer past the digit limit
            doc = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"input: invalid JSON ({exc})") from exc
        job = JobSpec.build(args["command"], doc, args["format"],
                            bound=args["bound"], precision=args["precision"])
        report = job.run()
        if job.output_format == "json":
            sys.stdout.write(json.dumps(report, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        else:
            _render_text(report, sys.stdout)
        return 0
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:   # internal failure, a ValueError included
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

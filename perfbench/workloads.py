"""Seeded inputs, item runners and independent output checks per workload.

A workload's items come in rounds.  Round ``r`` of seed ``s`` is a fixed
stratified mix drawn with ``random.Random(f"{s}:{r}")``, so the same seed
gives the same items and every round holds the same number of items of each
stratum.  Nothing here filters an input on its outcome or its cost.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import time
from contextlib import redirect_stdout
from io import StringIO

import speed

CORPUS = os.path.join("tests", "binary_patterns.jsonl")

# Workload definitions: why each was chosen and what one round holds.
WHY = {
    "corpus_cli": "zimrev corpus over the shuffled binary corpus at --jobs 2: the named end-to-end path and the only one through cli and its process pool",
    "oracle_xval": "criterion-3 avoider search at length 50, k=3..5, over stratified avoidable binary patterns: most of tier-1 time, no decide or division calls",
    "division_sym": "decide on sharp Z(m,n) windows and 5-variable reversal-free patterns: all time in the division search, no occurs or oracle calls",
    "decide_mixed": "decide on random 3-variable formulas with reversal: lemma battery, flat witnesses and the known budget escape",
}

# Per round: the seed draws this many patterns from the deep and medium
# strata and orders them among every light pattern.  Deep draws come from
# the two deep-tree patterns without mirror marks (one search tree up to
# renaming): the six with marks cost 14.5-20.9 s against 16-17 s and moved a
# round's throughput by up to 12%.  With three heavy items the tail lands on
# the eighth-slowest light pattern, inside a dense cluster; with all eight
# medium patterns it landed on the second-slowest and spread by 30%.
ORACLE_DRAWN = {"deep": 1, "medium": 2}
ORACLE_LENGTH = 50
ORACLE_ALPHABETS = (3, 4, 5)
ORACLE_STEPS = 400_000
RECHECK_STEPS = 10**7

# Every window runs in each round except those of class (m', n') = (1, 4)
# or (2, 3): one of them costs 0.25-20 s, more than a round can absorb
# without its throughput swinging with the seed.
DIVISION_SKIPPED_CLASSES = ((1, 4), (2, 3))
DIVISION_TEMPLATES = ((1, 3), (2, 2), (3, 2), (1, 4), (2, 3))
DIVISION_MAX_FRAGMENTS = 64
# The reversal-free patterns are a fixed panel, one per length, drawn once
# from PATTERN_PANEL_SEED: their exhaustive-division cost is heavy-tailed
# (median 0.23 s, up to 9.4 s over 75 draws), so a per-seed draw of nine
# swung a round between 15 and 20 s.  The run seed orders the items.
PATTERN_VARS = ("a", "b", "c", "d", "e")
PATTERN_LENGTHS = range(6, 15)
PATTERN_PANEL_SEED = "panel"

MIXED_ITEMS = 30
MIXED_MIRROR_P = 0.3


def rng_for(seed: int, round_no: int) -> random.Random:
    return random.Random(f"{seed}:{round_no}")


# ---------------------------------------------------------------------------
# Item records.  Every runner returns one dict per item:
#   key      the input as text
#   start    perf_counter when it began
#   end      perf_counter when it ended
#   ms       wall time to its verdict or result, less time in the sampler
#   out      JSON-able output (None when the item raised)
#   error    exception type name, or None
#   decided  True for a definite answer
#   stratum  the stratum it was drawn from


def _timed(key, stratum, fn, to_json, decided):
    paused = speed.paused_s()
    started = time.perf_counter()
    value, error = None, None
    try:
        value = fn()
    except Exception as exc:  # per-item fault capture: never abort the run
        error = type(exc).__name__
    end = time.perf_counter()
    ms = (end - started - (speed.paused_s() - paused)) * 1000.0
    rec = {"key": key, "stratum": stratum, "start": started, "end": end, "ms": ms, "error": error,
           "out": None if error else to_json(value), "decided": error is None and decided(value)}
    return rec, value


def read_corpus(root: str):
    with open(os.path.join(root, CORPUS), "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# corpus_cli


class CorpusCli:
    name = "corpus_cli"

    def __init__(self, root, seed, scratch, jobs=2):
        self.entries = read_corpus(root)
        self.seed = seed
        self.scratch = scratch
        self.jobs = jobs
        # the items run in pool workers, which sample the host speed
        # themselves; a sampler in this process would compete with them
        self.pooled = jobs > 1
        self.sample = False
        self.expected = {}
        for e in self.entries:
            self.expected[e["expected_status"]] = self.expected.get(e["expected_status"], 0) + 1
        self.rounds = {}
        self.prepare(0)

    def prepare(self, r):
        lines = [json.dumps(e, sort_keys=True) for e in self.entries]
        rng_for(self.seed, r).shuffle(lines)
        path = os.path.join(self.scratch, f"corpus_{self.seed}_{r}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        self.rounds[r] = (path, lines)

    def run_round(self, r, main):
        if r not in self.rounds:
            self.prepare(r)
        path, lines = self.rounds[r]
        timing_dir = os.path.join(self.scratch, f"items_{os.getpid()}_{r}")
        os.makedirs(timing_dir, exist_ok=True)
        _ItemTimer.install(timing_dir, self.sample)
        captured = StringIO()
        try:
            with redirect_stdout(captured):
                code = main(["corpus", path, "--jobs", str(self.jobs)])
        finally:
            _ItemTimer.uninstall()
        times, errors, samples = _ItemTimer.collect(timing_dir)
        out = captured.getvalue()
        try:
            payload = json.loads(out) if out.strip() else None
        except json.JSONDecodeError:
            payload = None
        results = {} if payload is None else {res["line"]: res for res in payload.get("results", [])}
        records = []
        for line_no, text in enumerate(lines, 1):
            entry = json.loads(text)
            res = results.get(line_no)
            start, end, ms = times.get(line_no, (None, None, None))
            records.append({
                "key": entry["formula"],
                "stratum": entry["expected_status"],
                "start": start,
                "end": end,
                "ms": ms,
                "out": None if res is None else res["status"],
                "error": errors.get(line_no) or (None if res is not None else f"exit {code}"),
                "decided": res is not None and res["status"] != "unknown",
            })
        return records, {"exit": code, "payload": payload, "stdout": out, "samples": samples}

    def check(self, records, extra):
        problems = []
        for rec in records:
            if rec["out"] is not None and rec["out"] != rec["stratum"]:
                rec["refuted"] = f"status {rec['out']} != expected {rec['stratum']}"
        untimed = sum(1 for rec in records if rec["ms"] is None)
        if untimed:
            problems.append(f"{untimed} corpus lines have no timing row from the pool workers")
        for run in extra:
            payload = run["payload"]
            if run["exit"] != 0:
                problems.append(f"exit code {run['exit']}")
            if payload is None:
                problems.append("no JSON output")
                continue
            if payload["mismatches"] != []:
                problems.append(f"{len(payload['mismatches'])} mismatches")
            if payload["status_counts"] != self.expected:
                problems.append(f"status counts {payload['status_counts']} != {self.expected}")
        return problems


class _ItemTimer:
    """Times each corpus line inside the CLI's pool workers.

    The CLI prints no per-line times, so ``cli._corpus_entry`` is swapped
    for a wrapper that appends ``line<TAB>start<TAB>end<TAB>ms<TAB>error``
    to a per-process file; the wrapper keeps the original's module and
    name, so the pool pickles it by reference and forked workers run it.
    With sampling on, a process without a sampler of its own starts one on
    its first line and appends its samples as ``S<TAB>at<TAB>took`` rows.
    Output is unchanged.
    """

    original = None
    states = {}

    @classmethod
    def install(cls, directory, sample):
        import functools

        cli = sys.modules["zimrev.cli"]
        if cls.original is None:
            cls.original = cli._corpus_entry
        original = cls.original
        states = cls.states = {}

        @functools.wraps(original)
        def timed_entry(job):
            state = states.get(os.getpid())
            if state is None:
                fd = os.open(os.path.join(directory, f"{os.getpid()}.tsv"),
                             os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                own = speed.start() if sample and speed.mine() is None else None
                state = states[os.getpid()] = [fd, own, 0]
            paused = speed.paused_s()
            started = time.perf_counter()
            error = ""
            try:
                return original(job)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                ms = (end - started - (speed.paused_s() - paused)) * 1000.0
                rows = [f"{job[0]}\t{started!r}\t{end!r}\t{ms!r}\t{error}\n"]
                cls.flush(state, rows)

        cli._corpus_entry = timed_entry

    @staticmethod
    def flush(state, rows):
        fd, own, done = state
        if own is not None:
            new = own.samples(done)
            state[2] = done + len(new)
            rows += [f"S\t{at!r}\t{took!r}\n" for at, took in new]
        os.write(fd, "".join(rows).encode())

    @classmethod
    def uninstall(cls):
        sys.modules["zimrev.cli"]._corpus_entry = cls.original
        state = cls.states.pop(os.getpid(), None)
        if state is not None:
            if state[1] is not None:
                state[1].stop()
            cls.flush(state, [])
            os.close(state[0])

    @staticmethod
    def collect(directory):
        times, errors, samples = {}, {}, []
        for name in sorted(os.listdir(directory)):
            path = os.path.join(directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                for row in handle:
                    fields = row.rstrip("\n").split("\t")
                    if fields[0] == "S":
                        samples.append((float(fields[1]), float(fields[2])))
                        continue
                    line_no, start, end, ms, error = fields
                    times[int(line_no)] = (float(start), float(end), float(ms))
                    if error:
                        errors[int(line_no)] = error
            os.remove(path)
        os.rmdir(directory)
        return times, errors, samples


# ---------------------------------------------------------------------------
# oracle_xval


def oracle_stratum(text: str) -> str:
    """deep: shape a a b a (one orientation of a); medium: a a b a~;
    light: the rest.  Deep patterns with mirror marks are "deep_marked"."""
    syms = text.split()
    if len(syms) != 4:
        return "light"
    names = [s.rstrip("~") for s in syms]
    a, b = names[0], names[2]
    if a == b or names != [a, a, b, a] or syms[0] != syms[1]:
        return "light"
    if syms[3] != syms[0]:
        return "medium"
    return "deep_marked" if "~" in text else "deep"


class OracleXval:
    name = "oracle_xval"
    pooled = False

    def __init__(self, root, seed, scratch):
        from zimrev import parse

        self.seed = seed
        self.strata = {"deep": [], "deep_marked": [], "medium": [], "light": []}
        for e in read_corpus(root):
            if e["expected_status"] == "avoidable":
                self.strata[oracle_stratum(e["formula"])].append(e["formula"])
        self.parse = parse
        self.rounds = {0: self.draw(0)}

    def draw(self, r):
        rng = rng_for(self.seed, r)
        items = [(f, "light") for f in self.strata["light"]]
        for name, count in ORACLE_DRAWN.items():
            items += [(f, name) for f in rng.sample(self.strata[name], count)]
        rng.shuffle(items)
        return [(self.parse(f), f, s) for f, s in items]

    def run_round(self, r, search):
        from zimrev import SearchBudget
        from zimrev.words import word_to_json

        if r not in self.rounds:
            self.rounds[r] = self.draw(r)
        budget = SearchBudget(ORACLE_LENGTH, ORACLE_STEPS)

        def avoider(phi):
            nodes = 0
            for k in ORACLE_ALPHABETS:
                report = search(phi, k, ORACLE_LENGTH, budget)
                nodes += report.nodes
                if report.word is not None:
                    return k, report.word, nodes
            return None, None, nodes

        records = []
        for phi, text, stratum in self.rounds[r]:
            rec, value = _timed(
                text, stratum, lambda: avoider(phi),
                lambda v: {"k": v[0], "word": None if v[1] is None else word_to_json(v[1]), "nodes": v[2]},
                lambda v: v[1] is not None,
            )
            rec["value"] = (phi, value)
            records.append(rec)
        return records, {}

    def check(self, records, extra):
        from zimrev import SearchBudget
        from zimrev.morphisms import occurs

        for rec in records:
            phi, value = rec.pop("value")
            if value is None or value[1] is None:
                continue
            if occurs(phi, value[1], SearchBudget(ORACLE_LENGTH, RECHECK_STEPS)) is not None:
                rec["refuted"] = "avoider fails the occurrence re-check"
            elif brute_force_occurs(rec["key"], value[1].letters):
                rec["refuted"] = "avoider fails the brute-force occurrence check"
        return []


def brute_force_occurs(text: str, letters) -> bool:
    """True when the formula ``text`` occurs in ``letters``: some non-erasing
    map of variables to factors, a mirrored symbol taking the reversed image,
    sends every fragment to a factor.  A plain scan of every start and image
    length that shares no code with zimrev, for the short patterns here."""
    frags = [[(s.rstrip("~"), s.endswith("~")) for s in f.split()] for f in text.split(".")]
    n = len(letters)

    def match(fi, si, pos, images):
        if fi == len(frags):
            return True
        frag = frags[fi]
        if si == len(frag):
            return match(fi + 1, 0, None, images)
        if pos is None:
            return any(match(fi, 0, start, images) for start in range(n))
        var, mirrored = frag[si]
        if var in images:
            image = images[var][::-1] if mirrored else images[var]
            end = pos + len(image)
            return letters[pos:end] == image and match(fi, si + 1, end, images)
        for end in range(pos + 1, n + 1):
            factor = letters[pos:end]
            if match(fi, si + 1, end, dict(images, **{var: factor[::-1] if mirrored else factor})):
                return True
        return False

    return match(0, 0, None, {})


# ---------------------------------------------------------------------------
# division_sym and decide_mixed: decide over generated formulas


def window_formula(window) -> str:
    """A window of slots as a sharp formula: every X slot in both
    orientations, one fragment per orientation choice."""
    xs = [k for k, (kind, _) in enumerate(window) if kind == "x"]
    frags = []
    for bits in itertools.product((False, True), repeat=len(xs)):
        mirrored = {k for k, bit in zip(xs, bits) if bit}
        frags.append(" ".join(
            f"x{i}~" if k in mirrored else f"{kind}{i}" for k, (kind, i) in enumerate(window)
        ))
    return " . ".join(frags)


def zimin_windows():
    """Every distinct sharp window of length >= 2 with at most 64 fragments
    over the division templates, keyed by its own class (m', n')."""
    from zimrev.zimin import template

    by_class = {}
    seen = set()
    for m, n in DIVISION_TEMPLATES:
        slots = template(m, n).slots
        for i in range(len(slots)):
            for j in range(i + 2, len(slots) + 1):
                window = slots[i:j]
                if 2 ** sum(1 for kind, _ in window if kind == "x") > DIVISION_MAX_FRAGMENTS:
                    continue
                text = window_formula(window)
                if text in seen:
                    continue
                seen.add(text)
                cls = (len({i for kind, i in window if kind == "x"}),
                       len({i for kind, i in window if kind == "y"}))
                by_class.setdefault(cls, []).append(text)
    return by_class


def five_variable_pattern(rng: random.Random, length: int) -> str:
    """A reversal-free pattern of the given length using all five variables."""
    letters = [rng.choice(PATTERN_VARS) for _ in range(length)]
    for var, pos in zip(PATTERN_VARS, rng.sample(range(length), len(PATTERN_VARS))):
        letters[pos] = var
    return " ".join(letters)


def mixed_formula(rng: random.Random) -> str:
    frags = []
    for _ in range(rng.randint(1, 2)):
        frags.append(" ".join(
            rng.choice("xyz") + ("~" if rng.random() < MIXED_MIRROR_P else "")
            for _ in range(rng.randint(2, 6))
        ))
    return " . ".join(frags)


class _DecideWorkload:
    pooled = False

    def __init__(self, seed):
        from zimrev import parse

        self.seed = seed
        self.parse = parse
        self.rounds = {0: self.draw(0)}

    def run_round(self, r, decide):
        if r not in self.rounds:
            self.rounds[r] = self.draw(r)
        records = []
        for phi, text, stratum in self.rounds[r]:
            rec, verdict = _timed(
                text, stratum, lambda: decide(phi), lambda v: v.to_json(),
                lambda v: v.status != "unknown",
            )
            rec["value"] = (phi, verdict)
            records.append(rec)
        return records, {}

    def check(self, records, extra):
        for rec in records:
            phi, verdict = rec.pop("value")
            if verdict is None:
                continue
            try:
                problem = check_division(phi, verdict) or self.check_item(phi, verdict, rec)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                rec["refuted"] = problem
        return []


def check_division(phi, verdict):
    """Re-apply a division certificate and test every image against the
    Z(m, n) slot template."""
    from zimrev.decide import ZiminDivisionCert
    from zimrev.formulas import normalize
    from zimrev.morphisms import apply_symbolic
    from zimrev.zimin import is_zimin_factor

    cert = verdict.certificate
    if not isinstance(cert, ZiminDivisionCert):
        return None
    for frag in normalize(phi):
        if not is_zimin_factor(apply_symbolic(cert.morphism, frag), cert.m, cert.n):
            return f"division image of {frag} is no factor of Z({cert.m},{cert.n})"
    return None


class DivisionSym(_DecideWorkload):
    name = "division_sym"

    def __init__(self, root, seed, scratch):
        self.windows = zimin_windows()
        super().__init__(seed)

    def draw(self, r):
        rng = rng_for(self.seed, r)
        items = [
            (w, "window{}{}".format(*cls))
            for cls, windows in sorted(self.windows.items())
            if cls not in DIVISION_SKIPPED_CLASSES
            for w in windows
        ]
        panel = random.Random(PATTERN_PANEL_SEED)
        items += [(five_variable_pattern(panel, length), "pattern") for length in PATTERN_LENGTHS]
        rng.shuffle(items)
        return [(self.parse(t), t, s) for t, s in items]

    def check_item(self, phi, verdict, rec):
        from zimrev.classic import is_reducible

        if rec["stratum"] != "pattern":
            if verdict.status != "unavoidable":
                return f"window is {verdict.status}, but every window divides its template"
            return None
        reducible = is_reducible(phi) is not None
        if reducible != (verdict.status == "unavoidable"):
            return f"verdict {verdict.status} disagrees with is_reducible={reducible}"
        return None


class DecideMixed(_DecideWorkload):
    name = "decide_mixed"

    def __init__(self, root, seed, scratch):
        super().__init__(seed)

    def draw(self, r):
        rng = rng_for(self.seed, r)
        return [(self.parse(t), t, "random") for t in (mixed_formula(rng) for _ in range(MIXED_ITEMS))]

    def check_item(self, phi, verdict, rec):
        from zimrev.decide import LemmaCert
        from zimrev.formulas import normalize
        from zimrev.oracle import WITNESS_OK, verify_witness_prefix

        if verdict.status == "unknown" and (verdict.m == 0 or verdict.n <= 2):
            return "unknown returned where the characterization decides"
        if isinstance(verdict.certificate, LemmaCert):
            report = verify_witness_prefix(verdict.certificate.witness, normalize(phi), 300, 30)
            if report.mode != WITNESS_OK:
                return f"lemma witness check: {report.mode}"
        return None


WORKLOADS = {w.name: w for w in (CorpusCli, OracleXval, DivisionSym, DecideMixed)}

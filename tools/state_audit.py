#!/usr/bin/env python3
"""State-surface completeness auditor for src/.

Every component in this repo maintains up to four parallel state-transfer
surfaces by hand: CloneState() (deep copy), SaveState()/LoadState()
(the durable wire format), and Snapshot()/Restore() (the engine's run
state). The determinism contract — bit-identical results across shard
layouts, crash-restores and cross-process SHIP/LOAD — dies the moment one
data member is forgotten on one of those paths, and nothing in the type
system notices. This auditor makes the contract machine-checked:

  1. Coverage  — for every class implementing any state surface, every
     non-static data member must be referenced in *every* surface the
     class implements. Genuinely derived/transient fields are skipped via
     an inline justified allowlist:  // ccd:state-skip(<field>, <reason>)
     placed inside the class body. Unjustified (empty/short reason),
     unknown-field and stale (field actually covered everywhere) skips
     are findings too, so the annotations stay honest.
  2. Symmetry  — SaveState and LoadState must issue the same sequence of
     typed wire calls (count, order, primitive type, section names, loop/
     conditional nesting). Reader::Count is the read of a Writer::U32
     length prefix and normalizes to U32; the io::Write*/Read* codec
     helper pairs and nested component SaveState/LoadState calls are
     matched as opaque typed units.
  3. Schema drift — each serialized class gets a canonical fingerprint
     (field set + wire call sequence) recorded in tools/wire_schema.json.
     A fingerprint change without bumping kStateSchemaVersion in
     src/io/codecs.h fails CI; bump the constant and re-run with
     --update to re-pin the manifest. The manifest also carries a
     per-class wire *pattern* (a regex over one tag character per wire
     primitive) that `statedump --verify --schema` checks decoded state
     images against (src/io/schema_check.cc).

Two interchangeable frontends produce the same intermediate model:

  * clang — drives `clang++ -Xclang -ast-dump=json` with the flags from
    the build's compile_commands.json (exported by every configure) and
    reads fields, member references and wire calls out of the AST. Used
    by the static-analysis CI job; requires a clang binary.
  * text  — a comment/string-aware tokenizer over the sources. No
    toolchain dependency, runs in the plain gcc container and in the
    ctest self-test (tests/state_audit_test.py) which proves both
    frontends and all three checks fire on known-bad fixtures.

`--frontend auto` (default) picks clang when both a clang++ binary and a
compile_commands.json are present, else text. The skip allowlist is
always collected textually — comments do not survive into the AST.

Exit status: 0 clean, 1 with findings, 2 usage/environment error.
"""

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# ------------------------------------------------------------ wire model

# Writer/Reader primitive methods -> canonical unit name. Reader::Count
# reads the U32 length prefix Writer::U32 wrote, so it normalizes to U32.
PRIMITIVES = {
    "U8": "U8", "U32": "U32", "U64": "U64", "I64": "I64", "F64": "F64",
    "Bool": "Bool", "String": "String", "Bytes": "Bytes",
    "F64Array": "F64Array", "Count": "U32",
}

# io/codecs.h helper pairs -> (unit, body tag-pattern). The tag pattern is
# the exact byte-level grammar the helper emits, one character per wire
# tag: b=u8 u=u32 q=u64 i=i64 d=f64 o=bool s=string y=bytes a=f64-array,
# ( ) = section open/close. Used for the manifest wire_pattern that
# statedump --schema re-checks against real state images.
HELPERS = {
    "WriteInstance": ("Instance", r"aid"),
    "ReadInstance": ("Instance", None),
    "WriteDetectorState": ("DetectorState", r"b"),
    "ReadDetectorState": ("DetectorState", None),
    "WriteWelford": ("Welford", r"qdd"),
    "ReadWelford": ("Welford", None),
    "WriteRng": ("Rng", r"qqod"),
    "ReadRngInto": ("Rng", None),
    "WriteTrend": ("Trend", r"qqu(?:qd)*dddd"),
    "ReadTrendInto": ("Trend", None),
    "WriteNormalizer": ("Normalizer", r"aao"),
    "ReadNormalizerInto": ("Normalizer", None),
    "WriteF64Deque": ("F64Deque", r"a"),
    "ReadF64Deque": ("F64Deque", None),
    "WriteBoolDeque": ("BoolDeque", r"ub*"),
    "ReadBoolDeque": ("BoolDeque", None),
    "WriteBoolVector": ("BoolVector", r"ub*"),
    "ReadBoolVector": ("BoolVector", None),
    "WriteI64Vector": ("I64Vector", r"ui*"),
    "ReadI64Vector": ("I64Vector", None),
    "WriteIntVector": ("IntVector", r"ui*"),
    "ReadIntVector": ("IntVector", None),
}

HELPER_PATTERNS = {unit: pat for unit, pat in HELPERS.values() if pat}
# A nested component SaveState/LoadState: dynamic type, opaque bytes.
HELPER_PATTERNS["Component"] = r".*"

PRIMITIVE_CHARS = {
    "U8": "b", "U32": "u", "U64": "q", "I64": "i", "F64": "d",
    "Bool": "o", "String": "s", "Bytes": "y", "F64Array": "a",
}

SURFACES = ("SaveState", "LoadState", "CloneState", "Snapshot", "Restore")

SKIP_RE = re.compile(r"//\s*ccd:state-skip\(\s*(\w+)\s*,\s*([^)]*)\)")
MIN_SKIP_REASON = 10  # characters; an empty or token reason is no reason


class WireCall:
    """One typed wire call inside a surface body."""

    def __init__(self, unit, loop, cond, section=None, path=()):
        self.unit = unit        # U8/../F64Array, Begin, End, or helper unit
        self.loop = loop        # enclosing loop nesting depth
        self.cond = cond        # enclosing conditional nesting depth
        self.section = section  # BeginSection name, when known
        # Identity path of the enclosing control frames, outermost first:
        # ((frame_id, "loop"|"cond"), ...). Distinguishes two *adjacent*
        # loops from one loop when reconstructing the wire grammar —
        # depths alone cannot. Frame ids differ between frontends; the
        # path feeds only the wire_pattern, never fingerprints.
        self.path = tuple(path)

    def sym_key(self):
        # Symmetry compares count, order, type, loop nesting and section
        # names. Conditional *shape* may legitimately differ: a writer
        # guards with `if (x == nullptr) continue;` where the reader
        # branches on `if (r.Bool(f)) { ... }`.
        return (self.unit, self.loop, self.section)

    def __repr__(self):
        tag = self.unit if self.section is None else (
            f"{self.unit}:{self.section}")
        mods = (f"|l{self.loop}" if self.loop else "") + (
            f"|c{self.cond}" if self.cond else "")
        return tag + mods


class Surface:
    def __init__(self, kind, file, line):
        self.kind = kind        # one of SURFACES
        self.file = file
        self.line = line
        self.refs = set()       # member names referenced in the body
        self.calls = []         # ordered list of WireCall
        self.whole_object = False  # body uses *this (copy-construction)
        self.has_body = False


class ClassModel:
    def __init__(self, name, file, line):
        self.name = name
        self.file = file        # file of the class definition
        self.line = line
        self.fields = []        # [(name, line)]
        self.surfaces = {}      # kind -> Surface
        self.skips = {}         # field -> (reason, file, line)

    def audited(self):
        kinds = set(self.surfaces)
        if kinds & {"SaveState", "LoadState", "CloneState"}:
            return True
        return {"Snapshot", "Restore"} <= kinds

    def serialized(self):
        save = self.surfaces.get("SaveState")
        return bool(save and save.has_body and save.calls)


# ------------------------------------------------------- source scanning

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
LINE_COMMENT = re.compile(r"//[^\n]*")
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')
CHAR_LIT = re.compile(r"'(?:[^'\\\n]|\\.)*'")


def _blank(match):
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_comments(text):
    """Blanks comments, keeping strings and line numbers intact."""
    text = BLOCK_COMMENT.sub(_blank, text)
    return LINE_COMMENT.sub(_blank, text)


def strip_strings(text):
    text = STRING_LIT.sub(_blank, text)
    return CHAR_LIT.sub(_blank, text)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_brace(text, open_pos):
    """Index just past the brace matching text[open_pos] == '{'."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


CLASS_RE = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;]*)?\{")
OUT_OF_LINE_RE = re.compile(
    r"\b(?:\w+\s*::\s*)*(\w+)\s*::\s*"
    r"(SaveState|LoadState|CloneState|Snapshot|Restore)\s*\(([^)]*)\)"
    r"\s*(?:const\s*)?(?:noexcept\s*)?\{")
IN_CLASS_METHOD_RE = re.compile(
    r"\b(SaveState|LoadState|CloneState|Snapshot|Restore)\s*\(([^)]*)\)")


def surface_signature_ok(kind, params):
    """The overload sets the auditor owns, by parameter text."""
    if kind == "SaveState":
        return "Writer" in params
    if kind == "LoadState":
        return "Reader" in params
    # CloneState/Snapshot()/Restore(snapshot) — any arity.
    return True


CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*(?:\.|->)\s*)?"
    r"\b([A-Za-z_]\w*)\s*\(")
CONTROL_KEYWORDS = ("for", "while", "if", "switch", "do")


def control_frames(body):
    """Control-flow frames of a body: [(start, end, kind)] in source order.

    A control keyword opens a frame covering its statement or brace
    block; `for`/`while`/`do` frames are "loop" frames and include their
    header (it re-executes every iteration), `if`/`switch`/`else` are
    "cond" frames covering only the dependent statement — a call in an
    if *condition* executes unconditionally (`if (r.Bool(f))` must pair
    with the writer's unconditional `w.Bool(x)`). Matches the clang
    frontend's rule. Ternaries are not tracked (no wire call in this
    codebase sits under one; the self-test pins the supported shapes).
    """
    n = len(body)
    frames = []
    for m in re.finditer(r"\b(for|while|if|switch|do|else)\b", body):
        kw = m.group(1)
        pos = m.end()
        # Header parens (absent for `do` and `else`).
        if kw not in ("do", "else"):
            paren = body.find("(", pos)
            if paren < 0:
                continue
            depth = 0
            i = paren
            while i < n:
                if body[i] == "(":
                    depth += 1
                elif body[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            pos = i + 1
        # Body: next non-space char opens a block or a single statement.
        j = pos
        while j < n and body[j].isspace():
            j += 1
        if j < n and body[j] == "{":
            end = match_brace(body, j)
        else:
            end = body.find(";", j)
            end = n if end < 0 else end + 1
        is_loop = kw in ("for", "while", "do")
        start = m.start() if is_loop else pos
        frames.append((start, min(end, n), "loop" if is_loop else "cond"))
    return frames


def frame_path(frames, pos):
    """The frames containing `pos`, outermost first, as WireCall.path."""
    inside = [
        (start, end, kind, idx)
        for idx, (start, end, kind) in enumerate(frames)
        if start <= pos < end]
    inside.sort(key=lambda f: (f[0], -f[1]))
    return tuple((idx, kind) for _, _, kind, idx in inside)


def repo_rel(path):
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.as_posix()


def section_name_at(text_with_strings, pos):
    m = re.compile(r'\(\s*"((?:[^"\\]|\\.)*)"').match(text_with_strings, pos)
    return m.group(1) if m else None


def extract_calls(body_nostr, body_str):
    """Ordered WireCalls from one surface body.

    `body_nostr` has comments+strings blanked (drives matching);
    `body_str` keeps strings (section names).
    """
    frames = control_frames(body_nostr)
    calls = []
    for m in CALL_RE.finditer(body_nostr):
        base, name = m.group(1), m.group(2)
        at = m.start(2)
        path = frame_path(frames, at)
        loop = sum(1 for _, kind in path if kind == "loop")
        cond = sum(1 for _, kind in path if kind == "cond")
        if name in PRIMITIVES and base is not None:
            calls.append(WireCall(PRIMITIVES[name], loop, cond, path=path))
        elif name == "BeginSection":
            paren = body_nostr.find("(", m.end(2))
            calls.append(
                WireCall("Begin", loop, cond,
                         section_name_at(body_str, paren), path=path))
        elif name == "EndSection":
            calls.append(WireCall("End", loop, cond, path=path))
        elif name in HELPERS:
            calls.append(WireCall(HELPERS[name][0], loop, cond, path=path))
        elif name in ("SaveState", "LoadState") and base is not None:
            # Nested component state: rbm_.SaveState(w), perc->LoadState(r).
            calls.append(WireCall("Component", loop, cond, path=path))
    return calls


def extract_refs(body_nostr, field_names):
    idents = set(re.findall(r"[A-Za-z_]\w*", body_nostr))
    return idents & field_names


WHOLE_OBJECT_RE = re.compile(r"\*\s*this\b")

FIELD_STMT_SKIP = re.compile(
    r"^\s*(using|typedef|friend|static|enum|class|"
    r"struct|template|constexpr|explicit|virtual|operator)\b")
# Leading access specifiers belong to no declaration: `private: Params
# params_;` is one statement to the splitter, and its member must count.
ACCESS_SPECIFIERS = re.compile(
    r"^(?:\s*(?:public|private|protected)\s*:(?!:))+")


def split_declarators(stmt):
    """Top-level comma split of a declaration statement's declarators."""
    parts = []
    depth = 0
    angle = 0
    cur = []
    for c in stmt:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "," and depth == 0 and angle == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(c)
    parts.append("".join(cur))
    return parts


def has_toplevel_paren(stmt):
    angle = 0
    brace = 0
    for c in stmt:
        if c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        elif c == "{":
            brace += 1
        elif c == "}":
            brace = max(0, brace - 1)
        elif c == "(" and angle == 0 and brace == 0:
            return True
    return False


def parse_fields(class_body_nostr, body_offset, full_text):
    """Non-static data members declared at class-body depth 1."""
    fields = []
    i = 0
    n = len(class_body_nostr)
    stmt_start = 0
    while i < n:
        c = class_body_nostr[i]
        if c == "{":
            end = match_brace(class_body_nostr, i)
            # Next non-space char: ';' or ',' or '=' continues a
            # brace-initialized declarator; anything else means this was
            # a method body / nested class — drop the pending statement.
            j = end
            while j < n and class_body_nostr[j].isspace():
                j += 1
            if j < n and class_body_nostr[j] in ";,=":
                i = end
                continue
            i = end
            stmt_start = i
            continue
        if c == ";":
            stmt = class_body_nostr[stmt_start:i]
            access = ACCESS_SPECIFIERS.match(stmt)
            if access:
                stmt_start += access.end()
                stmt = stmt[access.end():]
            stmt_clean = re.sub(r"\{[^{}]*\}", "", stmt)
            if (stmt_clean.strip() and not FIELD_STMT_SKIP.match(stmt_clean)
                    and not has_toplevel_paren(stmt_clean)):
                for idx, decl in enumerate(split_declarators(stmt_clean)):
                    decl = re.split(r"=", decl, maxsplit=1)[0]
                    decl = re.sub(r"\[[^\]]*\]", "", decl)
                    words = re.findall(r"[A-Za-z_]\w*", decl)
                    # Later declarators of `double a_ = 0, b_ = 0;` carry
                    # only the name, no type.
                    if len(words) >= 2 or (idx > 0 and words):
                        fields.append(
                            (words[-1],
                             line_of(full_text, body_offset + stmt_start)))
            stmt_start = i + 1
        i += 1
    return fields


def text_frontend(files, classes):
    """Tokenizer frontend: fills `classes` (name -> ClassModel)."""
    for path in files:
        rel = repo_rel(path)
        raw = path.read_text(encoding="utf-8")
        nocomment = strip_comments(raw)
        nostr = strip_strings(nocomment)

        # Class definitions (and in-class surface bodies + fields).
        for cm in CLASS_RE.finditer(nostr):
            if re.search(r"\benum\s*$", nostr[: cm.start()]):
                continue
            name = cm.group(2)
            open_brace = cm.end() - 1
            close = match_brace(nostr, open_brace)
            body = nostr[open_brace + 1: close - 1]
            body_off = open_brace + 1
            model = classes.get(name)
            if model is None:
                model = classes[name] = ClassModel(
                    name, rel, line_of(raw, cm.start()))
            if not getattr(model, "defined", False):
                # The class *definition* (not an out-of-line method seen
                # earlier) owns the reported location and the field list.
                model.defined = True
                model.file = rel
                model.line = line_of(raw, cm.start())
                model.fields = parse_fields(body, body_off, raw)
            # Skip annotations live inside the class body (raw text —
            # comments were blanked above).
            raw_body = raw[body_off: close - 1]
            for sm in SKIP_RE.finditer(raw_body):
                model.skips[sm.group(1)] = (
                    sm.group(2).strip(), rel,
                    line_of(raw, body_off + sm.start()))
            # In-class surface definitions/declarations at any depth-1 spot.
            for mm in IN_CLASS_METHOD_RE.finditer(body):
                kind, params = mm.group(1), mm.group(2)
                if not surface_signature_ok(kind, params):
                    continue
                # Body or declaration?
                after = body.find("{", mm.end())
                semi = body.find(";", mm.end())
                line = line_of(raw, body_off + mm.start())
                surface = model.surfaces.setdefault(
                    kind, Surface(kind, rel, line))
                if after != -1 and (semi == -1 or after < semi):
                    b_end = match_brace(body, after)
                    _fill_surface(surface, body[after:b_end],
                                  nocomment[body_off + after:
                                            body_off + b_end])

        # Out-of-line definitions: Class::Surface(...) { ... }
        for om in OUT_OF_LINE_RE.finditer(nostr):
            cls, kind, params = om.group(1), om.group(2), om.group(3)
            if not surface_signature_ok(kind, params):
                continue
            open_brace = nostr.find("{", om.end() - 1)
            b_end = match_brace(nostr, open_brace)
            model = classes.setdefault(
                cls, ClassModel(cls, rel, line_of(raw, om.start())))
            surface = model.surfaces.setdefault(
                kind, Surface(kind, rel, line_of(raw, om.start())))
            surface.file = rel
            surface.line = line_of(raw, om.start())
            _fill_surface(surface, nostr[open_brace:b_end],
                          nocomment[open_brace:b_end])


def _fill_surface(surface, body_nostr, body_str):
    surface.has_body = True
    surface.calls = extract_calls(body_nostr, body_str)
    surface.whole_object = bool(WHOLE_OBJECT_RE.search(body_nostr))
    surface._body_nostr = body_nostr  # refs resolved once fields are known


def resolve_refs(classes):
    for model in classes.values():
        names = {f for f, _ in model.fields}
        for surface in model.surfaces.values():
            body = getattr(surface, "_body_nostr", None)
            if body is not None:
                surface.refs = extract_refs(body, names)


# ------------------------------------------------------- clang frontend

def clang_available():
    return shutil.which("clang++") is not None


class ClangTU:
    """Field/surface extraction from one `-ast-dump=json` translation unit."""

    def __init__(self, root, want_classes):
        self.want = want_classes
        self.classes = {}       # name -> ClassModel
        self.field_ids = {}     # AST node id -> (class name, field name)
        self.class_ids = {}     # AST node id -> class name
        self.method_class = {}  # method node id -> class name
        self._collect(root)

    def _collect(self, node, parent_class=None):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind == "CXXRecordDecl" and node.get("completeDefinition"):
            name = node.get("name")
            if name in self.want:
                self._read_class(node)
                return  # _read_class recursed already
        for child in node.get("inner", []) or []:
            self._collect(child)
        # Out-of-line definitions are CXXMethodDecl at namespace scope
        # linked to the class by parentDeclContextId.
        if kind == "CXXMethodDecl" and node.get("name") in SURFACES:
            cls = self.class_ids.get(node.get("parentDeclContextId"))
            if cls is None:
                prev = self.method_class.get(node.get("previousDecl"))
                cls = prev
            if cls is not None and self._has_body(node):
                self._read_surface(self.classes[cls], node)

    def _read_class(self, node):
        name = node["name"]
        loc = node.get("loc", {}) or {}
        model = self.classes.setdefault(
            name, ClassModel(name, loc.get("file", "?"),
                             loc.get("line", 0)))
        self.class_ids[node.get("id")] = name
        for child in node.get("inner", []) or []:
            ckind = child.get("kind")
            if ckind == "FieldDecl" and child.get("name"):
                model.fields.append(
                    (child["name"],
                     (child.get("loc", {}) or {}).get("line", 0)))
                self.field_ids[child.get("id")] = (name, child["name"])
            elif (ckind == "CXXMethodDecl"
                  and child.get("name") in SURFACES):
                self.method_class[child.get("id")] = name
                params = self._param_types(child)
                if not surface_signature_ok(child["name"], params):
                    continue
                model.surfaces.setdefault(
                    child["name"],
                    Surface(child["name"], model.file,
                            (child.get("loc", {}) or {}).get("line", 0)))
                if self._has_body(child):
                    self._read_surface(model, child)
            elif ckind == "CXXRecordDecl" and child.get(
                    "completeDefinition"):
                if child.get("name") in self.want:
                    self._read_class(child)

    @staticmethod
    def _param_types(method):
        types = []
        for child in method.get("inner", []) or []:
            if child.get("kind") == "ParmVarDecl":
                types.append(
                    (child.get("type", {}) or {}).get("qualType", ""))
        return " ".join(types)

    @staticmethod
    def _has_body(method):
        return any(c.get("kind") == "CompoundStmt"
                   for c in method.get("inner", []) or [])

    def _read_surface(self, model, method):
        kind = method["name"]
        params = self._param_types(method)
        if not surface_signature_ok(kind, params):
            return
        surface = model.surfaces.setdefault(
            kind, Surface(kind, model.file,
                          (method.get("loc", {}) or {}).get("line", 0)))
        surface.has_body = True
        surface.calls = []
        surface.refs = set()
        for child in method.get("inner", []) or []:
            if child.get("kind") == "CompoundStmt":
                self._walk_body(child, model, surface, ())

    LOOP_KINDS = {"ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt"}
    COND_KINDS = {"IfStmt", "SwitchStmt", "ConditionalOperator"}

    def _walk_body(self, node, model, surface, path):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind in self.LOOP_KINDS:
            path = path + ((node.get("id", id(node)), "loop"),)
        if kind == "MemberExpr":
            ref = self.field_ids.get(node.get("referencedMemberDecl"))
            if ref and ref[0] == model.name:
                surface.refs.add(ref[1])
        if kind == "UnaryOperator" and node.get("opcode") == "Deref":
            if any(c.get("kind") == "CXXThisExpr"
                   for c in node.get("inner", []) or []):
                surface.whole_object = True
        call = self._classify_call(node)
        if call is not None:
            unit, section = call
            loop = sum(1 for _, k in path if k == "loop")
            cond = sum(1 for _, k in path if k == "cond")
            surface.calls.append(
                WireCall(unit, loop, cond, section, path=path))
        inner = node.get("inner", []) or []
        for i, child in enumerate(inner):
            # A condition executes unconditionally: only the dependent
            # branches of if/switch/?: take the conditional frame (the
            # text frontend applies the same rule to if/switch headers).
            child_path = path
            if kind in self.COND_KINDS and i > 0:
                child_path = path + ((node.get("id", id(node)), "cond"),)
            self._walk_body(child, model, surface, child_path)

    def _classify_call(self, node):
        kind = node.get("kind")
        inner = node.get("inner", []) or []
        if kind == "CXXMemberCallExpr" and inner:
            callee = inner[0]
            if callee.get("kind") != "MemberExpr":
                return None
            name = callee.get("name")
            base_type = ""
            for c in callee.get("inner", []) or []:
                base_type = (c.get("type", {}) or {}).get("qualType", "")
                break
            on_wire = "Writer" in base_type or "Reader" in base_type
            if name in PRIMITIVES and on_wire:
                return (PRIMITIVES[name], None)
            if name == "BeginSection" and on_wire:
                return ("Begin", self._string_arg(inner[1:]))
            if name == "EndSection" and on_wire:
                return ("End", None)
            if name in ("SaveState", "LoadState") and not on_wire:
                return ("Component", None)
            return None
        if kind == "CallExpr" and inner:
            name = self._callee_name(inner[0])
            if name in HELPERS:
                return (HELPERS[name][0], None)
        return None

    def _callee_name(self, node):
        if not isinstance(node, dict):
            return None
        if node.get("kind") == "DeclRefExpr":
            return (node.get("referencedDecl", {}) or {}).get("name")
        for child in node.get("inner", []) or []:
            name = self._callee_name(child)
            if name:
                return name
        return None

    def _string_arg(self, nodes):
        for node in nodes:
            lit = self._find_string(node)
            if lit is not None:
                return lit
        return None

    def _find_string(self, node):
        if not isinstance(node, dict):
            return None
        if node.get("kind") == "StringLiteral":
            value = node.get("value", "")
            return value[1:-1] if value.startswith('"') else value
        for child in node.get("inner", []) or []:
            lit = self._find_string(child)
            if lit is not None:
                return lit
        return None


def load_compile_commands(build_dir):
    cc = Path(build_dir) / "compile_commands.json"
    if not cc.is_file():
        return None
    entries = {}
    for entry in json.loads(cc.read_text()):
        entries[Path(entry["file"]).resolve()] = entry
    return entries


def tu_for_file(path, compile_commands):
    """The translation unit whose AST covers `path`."""
    resolved = path.resolve()
    if resolved in compile_commands:
        return resolved
    if path.suffix in (".h", ".hpp"):
        sibling = path.with_suffix(".cc").resolve()
        if sibling in compile_commands:
            return sibling
    return None


def clang_ast(entry):
    args = entry.get("arguments")
    if not args:
        args = entry["command"].split()
    cmd = ["clang++", "-fsyntax-only", "-Xclang", "-ast-dump=json"]
    skip_next = False
    for arg in args[1:]:
        if skip_next:
            skip_next = False
            continue
        if arg in ("-c", args[0]):
            continue
        if arg == "-o":
            skip_next = True
            continue
        if arg == entry["file"]:
            continue
        cmd.append(arg)
    cmd.append(entry["file"])
    proc = subprocess.run(cmd, cwd=entry.get("directory", "."),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"clang AST dump failed for {entry['file']}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def clang_frontend(files, classes, build_dir):
    """Re-derives fields/surfaces from clang ASTs, replacing the text
    model's semantic facts (skips stay textual)."""
    compile_commands = load_compile_commands(build_dir)
    if compile_commands is None:
        raise RuntimeError(
            f"no compile_commands.json under {build_dir} "
            "(configure with cmake first)")
    audited_names = {m.name for m in classes.values() if m.audited()}
    tus = {}
    for model in classes.values():
        if not model.audited():
            continue
        for cand in {model.file} | {
                s.file for s in model.surfaces.values()}:
            tu = tu_for_file(REPO / cand, compile_commands)
            if tu is not None:
                tus[tu] = compile_commands[tu]
    fresh = {}
    for tu in sorted(tus):
        ast = clang_ast(tus[tu])
        parsed = ClangTU(ast, audited_names)
        for name, model in parsed.classes.items():
            have = fresh.get(name)
            if have is None:
                fresh[name] = model
            else:
                # Merge surfaces found in another TU (defs split across
                # files); fields come from whichever saw the definition.
                for kind, surface in model.surfaces.items():
                    if surface.has_body or kind not in have.surfaces:
                        have.surfaces[kind] = surface
                if not have.fields:
                    have.fields = model.fields
    for name, model in fresh.items():
        old = classes.get(name)
        if old is not None:
            model.skips = old.skips
        classes[name] = model
    missing = audited_names - set(fresh)
    if missing:
        raise RuntimeError(
            "clang frontend lost audited classes (no TU found?): "
            + ", ".join(sorted(missing)))


# -------------------------------------------------------------- checks

def check_coverage(model, findings):
    skips_used = set()
    for kind, surface in sorted(model.surfaces.items()):
        if not surface.has_body:
            # Declared-but-undefined (e.g. pure/defaulted elsewhere):
            # nothing to check against.
            continue
        if surface.whole_object:
            continue  # copy-construction covers every member
        for field, line in model.fields:
            if field in model.skips:
                skips_used.add(field)
                continue
            if field not in surface.refs:
                findings.append(
                    f"{surface.file}:{surface.line}: [state-coverage] "
                    f"{model.name}::{field} (declared at "
                    f"{model.file}:{line}) is not referenced in {kind}(); "
                    f"add it or annotate the field with "
                    f"// ccd:state-skip({field}, <why it need not move>)")
    field_names = {f for f, _ in model.fields}
    for field, (reason, file, line) in sorted(model.skips.items()):
        if field not in field_names:
            findings.append(
                f"{file}:{line}: [state-skip] ccd:state-skip names "
                f"unknown field '{field}' of {model.name}")
            continue
        if len(reason) < MIN_SKIP_REASON:
            findings.append(
                f"{file}:{line}: [state-skip] unjustified skip for "
                f"{model.name}::{field}: reason '{reason}' is too short "
                f"to justify anything")
            continue
        covered = [
            kind for kind, s in model.surfaces.items()
            if s.has_body and not s.whole_object]
        if covered and all(
                field in model.surfaces[k].refs for k in covered):
            findings.append(
                f"{file}:{line}: [state-skip] stale skip: "
                f"{model.name}::{field} is referenced in every "
                f"implemented surface; drop the annotation")


def check_symmetry(model, findings):
    save = model.surfaces.get("SaveState")
    load = model.surfaces.get("LoadState")
    if not (save and load and save.has_body and load.has_body):
        return
    s_seq = [c.sym_key() for c in save.calls]
    l_seq = [c.sym_key() for c in load.calls]
    if s_seq == l_seq:
        return
    # Pinpoint the first divergence for the report.
    at = next((i for i, (a, b) in enumerate(zip(s_seq, l_seq)) if a != b),
              min(len(s_seq), len(l_seq)))
    s_at = save.calls[at] if at < len(s_seq) else "<end>"
    l_at = load.calls[at] if at < len(l_seq) else "<end>"
    findings.append(
        f"{load.file}:{load.line}: [save-load-symmetry] {model.name}: "
        f"SaveState writes {len(s_seq)} wire value(s), LoadState reads "
        f"{len(l_seq)}; first divergence at call {at + 1}: "
        f"SaveState={s_at!r} vs LoadState={l_at!r}")


def wire_pattern(calls):
    """Superset regex (one char per wire tag) for a Save sequence.

    Rebuilds the loop/conditional nesting from each call's control-frame
    path: entering a loop frame opens a `(?:` group closed with `)*`,
    a conditional frame one closed with `)?`. The result is a superset
    of the exact emission grammar — every real emission matches, some
    impossible ones too (e.g. per-iteration counts are not related back
    to their length prefixes). That is the right polarity for a
    conformance check.
    """
    out = []
    stack = []  # the currently open frames, outermost first

    def close_to(common):
        while len(stack) > common:
            _, kind = stack.pop()
            out.append(")*" if kind == "loop" else ")?")

    for call in calls:
        path = list(call.path)
        common = 0
        while (common < len(stack) and common < len(path)
               and stack[common] == path[common]):
            common += 1
        close_to(common)
        for frame in path[common:]:
            stack.append(frame)
            out.append("(?:")
        if call.unit == "Begin":
            out.append(r"\(")
        elif call.unit == "End":
            out.append(r"\)")
        else:
            out.append(PRIMITIVE_CHARS.get(call.unit)
                       or HELPER_PATTERNS.get(call.unit, ""))
    close_to(0)
    return "".join(out)


def fingerprint(model):
    # Only the serialized surface is fingerprinted: unskipped members plus
    # the exact SaveState call sequence. Justified-skip scratch members are
    # excluded — they never reach the wire, so adding one must not demand a
    # kStateSchemaVersion bump (the coverage check still forces every new
    # member to be either serialized or explicitly skip-annotated).
    save = model.surfaces["SaveState"]
    payload = {
        "fields": sorted(
            f for f, _ in model.fields if f not in model.skips),
        "save_sequence": [repr(c) for c in save.calls],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return payload, digest


def manifest_entry(model):
    save = model.surfaces["SaveState"]
    payload, digest = fingerprint(model)
    section = next(
        (c.section for c in save.calls if c.unit == "Begin"), None)
    inner = [c for c in save.calls[1:-1]] if section else save.calls
    return {
        "section": section,
        "fields": payload["fields"],
        "save_sequence": payload["save_sequence"],
        "wire_pattern": "^" + wire_pattern(inner) + "$",
        "fingerprint": "sha256:" + digest,
    }


def read_wire_version(header_path, findings):
    text = Path(header_path).read_text(encoding="utf-8")
    m = re.search(r"kStateSchemaVersion\s*=\s*(\d+)", text)
    if not m:
        findings.append(
            f"{header_path}: [schema-drift] kStateSchemaVersion constant "
            f"not found")
        return None
    return int(m.group(1))


def check_manifest(classes, manifest_path, header_path, findings):
    current = {
        m.name: manifest_entry(m)
        for m in classes.values() if m.audited() and m.serialized()}
    version = read_wire_version(header_path, findings)
    if version is None:
        return current, None
    path = Path(manifest_path)
    if not path.is_file():
        findings.append(
            f"{manifest_path}: [schema-drift] manifest missing; run "
            f"state_audit.py --update to create it")
        return current, version
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        findings.append(
            f"{manifest_path}: [schema-drift] unreadable manifest: {err}")
        return current, version
    stored_classes = stored.get("classes", {})
    stored_version = stored.get("wire_version")
    drift = []
    for name in sorted(set(current) | set(stored_classes)):
        if name not in stored_classes:
            drift.append(f"{name} is new (not in manifest)")
        elif name not in current:
            drift.append(f"{name} vanished from the tree")
        elif (stored_classes[name].get("fingerprint")
              != current[name]["fingerprint"]):
            old_fields = set(stored_classes[name].get("fields", []))
            new_fields = set(current[name]["fields"])
            delta = []
            if new_fields - old_fields:
                delta.append("+" + ",".join(sorted(new_fields - old_fields)))
            if old_fields - new_fields:
                delta.append("-" + ",".join(sorted(old_fields - new_fields)))
            what = " ".join(delta) if delta else "wire sequence changed"
            drift.append(f"{name} changed ({what})")
    if drift:
        if stored_version == version:
            for item in drift:
                findings.append(
                    f"{manifest_path}: [schema-drift] {item}, but "
                    f"kStateSchemaVersion is still {version}; bump it in "
                    f"src/io/codecs.h and re-run "
                    f"tools/state_audit.py --update")
        else:
            findings.append(
                f"{manifest_path}: [schema-drift] field schemas changed "
                f"and kStateSchemaVersion was bumped "
                f"({stored_version} -> {version}); re-run "
                f"tools/state_audit.py --update to re-pin the manifest")
    elif stored_version != version:
        findings.append(
            f"{manifest_path}: [schema-drift] manifest pinned at wire "
            f"version {stored_version} but kStateSchemaVersion is "
            f"{version}; re-run tools/state_audit.py --update")
    return current, version


def write_manifest(classes, manifest_path, header_path):
    findings = []
    current = {
        m.name: manifest_entry(m)
        for m in classes.values() if m.audited() and m.serialized()}
    version = read_wire_version(header_path, findings)
    if findings:
        return findings
    path = Path(manifest_path)
    if path.is_file():
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            stored = {}
        stored_classes = stored.get("classes", {})
        changed = any(
            stored_classes.get(n, {}).get("fingerprint")
            != e["fingerprint"]
            for n, e in current.items()) or set(stored_classes) != set(
                current)
        if changed and stored.get("wire_version") == version:
            return [
                f"{manifest_path}: [schema-drift] refusing --update: "
                f"field schemas changed but kStateSchemaVersion is still "
                f"{version}; bump it in src/io/codecs.h first"]
    doc = {
        "_comment": (
            "Generated by tools/state_audit.py --update. Canonical "
            "per-class field schemas and wire grammars; CI fails when "
            "these drift without a kStateSchemaVersion bump."),
        "wire_version": version,
        "classes": {n: current[n] for n in sorted(current)},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    print(f"state_audit: wrote {manifest_path} "
          f"({len(current)} classes at wire version {version})")
    return []


# ---------------------------------------------------------------- main

def gather_files(src):
    return sorted(
        p for p in Path(src).rglob("*")
        if p.suffix in (".h", ".hh", ".hpp", ".cc", ".cpp"))


def build_model(args):
    files = gather_files(args.src)
    if not files:
        raise RuntimeError(f"no C++ sources under {args.src}")
    classes = {}
    text_frontend(files, classes)
    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if (
            clang_available()
            and load_compile_commands(args.build) is not None) else "text"
    if frontend == "clang":
        if not clang_available():
            raise RuntimeError("--frontend clang: no clang++ binary found")
        clang_frontend(files, classes, args.build)
    resolve_refs(classes)
    return classes, frontend, len(files)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="State-surface completeness auditor")
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="source tree to audit")
    parser.add_argument("--manifest",
                        default=str(REPO / "tools" / "wire_schema.json"))
    parser.add_argument("--wire-header",
                        default=str(REPO / "src" / "io" / "codecs.h"),
                        help="header holding kStateSchemaVersion")
    parser.add_argument("--build", default=str(REPO / "build"),
                        help="build dir with compile_commands.json")
    parser.add_argument("--frontend",
                        choices=("auto", "clang", "text"), default="auto")
    parser.add_argument("--update", action="store_true",
                        help="re-pin the schema manifest (requires a "
                             "version bump when fingerprints changed)")
    parser.add_argument("--list", action="store_true",
                        help="print the audited classes and exit")
    args = parser.parse_args(argv)

    try:
        classes, frontend, nfiles = build_model(args)
    except RuntimeError as err:
        print(f"state_audit: {err}", file=sys.stderr)
        return 2

    audited = sorted(
        (m for m in classes.values() if m.audited()),
        key=lambda m: m.name)
    if args.list:
        for model in audited:
            kinds = ",".join(sorted(model.surfaces))
            print(f"{model.name} ({model.file}): {len(model.fields)} "
                  f"fields; surfaces: {kinds}"
                  + ("; serialized" if model.serialized() else ""))
        return 0

    if args.update:
        errors = write_manifest(classes, args.manifest, args.wire_header)
        for err in errors:
            print(err)
        return 1 if errors else 0

    findings = []
    for model in audited:
        check_coverage(model, findings)
        check_symmetry(model, findings)
    check_manifest(classes, args.manifest, args.wire_header, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(
            f"state_audit[{frontend}]: {len(findings)} finding(s) over "
            f"{len(audited)} audited classes in {nfiles} files",
            file=sys.stderr)
        return 1
    serialized = sum(1 for m in audited if m.serialized())
    print(f"state_audit[{frontend}]: clean — {len(audited)} audited "
          f"classes ({serialized} serialized) in {nfiles} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

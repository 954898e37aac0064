#!/usr/bin/env python3
"""Self-test for tools/state_audit.py (run via ctest: state_audit_selftest).

Proves each of the auditor's three checks fires on a known-bad fixture
tree and stays quiet on a clean one:

  * missing field            -> [state-coverage]
  * Save/Load order mismatch -> [save-load-symmetry]
  * unjustified / unknown skip -> [state-skip]
  * stale manifest without a kStateSchemaVersion bump -> [schema-drift],
    and --update refuses until the constant is bumped
  * clean class              -> exit 0

Also pins the clang frontend's AST interpretation against a hand-written
`-ast-dump=json` fixture (fields, out-of-line bodies via
parentDeclContextId, loop/conditional frames, member refs, *this), so
the CI job's clang leg is exercised by logic tests even in containers
without a clang binary.
"""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import state_audit  # noqa: E402


CLEAN_HEADER = """
namespace fix {
class Gauge {
 public:
  void SaveState(io::Writer& w) const;
  void LoadState(io::Reader& r);
  Gauge CloneState() const;
 private:
  double mean_ = 0.0;
  long long count_ = 0;
  // ccd:state-skip(scratch_, transient per-batch scratch buffer)
  int scratch_ = 0;
};
}  // namespace fix
"""

CLEAN_SOURCE = """
namespace fix {
void Gauge::SaveState(io::Writer& w) const {
  w.BeginSection("Gauge");
  w.F64("mean", mean_);
  w.I64("count", count_);
  w.EndSection();
}
void Gauge::LoadState(io::Reader& r) {
  r.BeginSection("Gauge");
  mean_ = r.F64("mean");
  count_ = r.I64("count");
  r.EndSection();
}
Gauge Gauge::CloneState() const { return Gauge(*this); }
}  // namespace fix
"""

WIRE_HEADER_V1 = "inline constexpr uint32_t kStateSchemaVersion = 1;\n"
WIRE_HEADER_V2 = "inline constexpr uint32_t kStateSchemaVersion = 2;\n"


class FixtureTree:
    """A throwaway repo layout: src/, a wire header, a manifest path."""

    def __init__(self, tmp, header=CLEAN_HEADER, source=CLEAN_SOURCE):
        self.root = Path(tmp)
        (self.root / "src").mkdir()
        self.write(header, source)
        self.wire_header = self.root / "codecs.h"
        self.wire_header.write_text(WIRE_HEADER_V1)
        self.manifest = self.root / "wire_schema.json"

    def write(self, header, source):
        (self.root / "src" / "gauge.h").write_text(header)
        (self.root / "src" / "gauge.cc").write_text(source)

    def run(self, *extra):
        argv = [
            "--src", str(self.root / "src"),
            "--manifest", str(self.manifest),
            "--wire-header", str(self.wire_header),
            "--frontend", "text",
        ] + list(extra)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = state_audit.main(argv)
        return code, out.getvalue()

    def pin_manifest(self):
        code, out = self.run("--update")
        assert code == 0, out


class CleanTreeTest(unittest.TestCase):
    def test_clean_class_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 0, out)
            self.assertIn("clean", out)
            self.assertIn("1 serialized", out)


class CoverageTest(unittest.TestCase):
    def test_missing_field_fires(self):
        # count_ exists but moves through no surface: both SaveState and
        # LoadState must be flagged (CloneState copies *this — exempt).
        source = CLEAN_SOURCE.replace(
            'w.I64("count", count_);', "").replace(
            'count_ = r.I64("count");', "")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[state-coverage]", out)
            self.assertIn("Gauge::count_", out)
            self.assertIn("SaveState", out)
            self.assertIn("LoadState", out)
            self.assertNotIn("Gauge::scratch_", out)  # justified skip

    def test_first_member_after_access_specifier_counts(self):
        # mean_ is declared right after `private:`, which the statement
        # splitter keeps in the same statement as the member: it must
        # still be a field, so dropping it from Save/Load fires.
        source = CLEAN_SOURCE.replace(
            'w.F64("mean", mean_);', "").replace(
            'mean_ = r.F64("mean");', "")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[state-coverage]", out)
            self.assertIn("Gauge::mean_", out)

    def test_whole_object_copy_covers_everything(self):
        # CloneState's `return Gauge(*this)` never yields coverage
        # findings — pinned here so the exemption does not regress.
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 0, out)


class SymmetryTest(unittest.TestCase):
    def test_type_order_mismatch_fires(self):
        # LoadState reads count before mean: same fields, same types,
        # wrong order — exactly the bug a round-trip test may mask when
        # both sides share the transposition.
        source = CLEAN_SOURCE.replace(
            '  mean_ = r.F64("mean");\n  count_ = r.I64("count");',
            '  count_ = r.I64("count");\n  mean_ = r.F64("mean");')
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[save-load-symmetry]", out)
            self.assertIn("first divergence at call 2", out)

    def test_missing_read_fires(self):
        source = CLEAN_SOURCE.replace('count_ = r.I64("count");', "count_ = 0;")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[save-load-symmetry]", out)
            self.assertIn("writes 4 wire value(s), LoadState reads 3", out)

    def test_loop_nesting_must_match(self):
        # Writer emits per-element inside a loop, reader reads the same
        # unit outside one: counts can even agree at runtime for a
        # one-element container, but the shapes differ.
        source = CLEAN_SOURCE.replace(
            'w.F64("mean", mean_);',
            'for (int i = 0; i < 2; ++i) w.F64("mean", mean_);')
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[save-load-symmetry]", out)


class SkipHygieneTest(unittest.TestCase):
    def test_unjustified_skip_fires(self):
        header = CLEAN_HEADER.replace(
            "transient per-batch scratch buffer", "temp")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, header=header)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[state-skip]", out)
            self.assertIn("unjustified skip", out)

    def test_unknown_field_skip_fires(self):
        header = CLEAN_HEADER.replace(
            "ccd:state-skip(scratch_,", "ccd:state-skip(nonexistent_,")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, header=header)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("unknown field 'nonexistent_'", out)
            # The no-longer-skipped scratch_ also turns uncovered.
            self.assertIn("[state-coverage]", out)

    def test_stale_skip_fires(self):
        # scratch_ annotated as skipped but actually serialized
        # everywhere: the annotation must be dropped.
        source = CLEAN_SOURCE.replace(
            'w.I64("count", count_);',
            'w.I64("count", count_);\n  w.U32("scratch", scratch_);').replace(
            'count_ = r.I64("count");',
            'count_ = r.I64("count");\n  scratch_ = r.U32("scratch");')
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("stale skip", out)


class SchemaDriftTest(unittest.TestCase):
    def grown_source(self):
        return CLEAN_SOURCE.replace(
            'w.I64("count", count_);',
            'w.I64("count", count_);\n  w.Bool("armed", armed_);').replace(
            'count_ = r.I64("count");',
            'count_ = r.I64("count");\n  armed_ = r.Bool("armed");')

    def grown_header(self):
        return CLEAN_HEADER.replace(
            "long long count_ = 0;",
            "long long count_ = 0;\n  bool armed_ = false;")

    def test_stale_manifest_fires_without_bump(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            tree.pin_manifest()
            # Grow the class; same kStateSchemaVersion.
            tree.write(self.grown_header(), self.grown_source())
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("[schema-drift]", out)
            self.assertIn("+armed_", out)
            self.assertIn("kStateSchemaVersion is still 1", out)

    def test_update_refuses_without_bump_then_accepts(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            tree.pin_manifest()
            tree.write(self.grown_header(), self.grown_source())
            code, out = tree.run("--update")
            self.assertEqual(code, 1, out)
            self.assertIn("refusing --update", out)
            # Bump the constant: --update re-pins, the check goes green.
            tree.wire_header.write_text(WIRE_HEADER_V2)
            code, out = tree.run("--update")
            self.assertEqual(code, 0, out)
            code, out = tree.run()
            self.assertEqual(code, 0, out)

    def test_version_bump_without_update_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            tree.pin_manifest()
            tree.wire_header.write_text(WIRE_HEADER_V2)
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("re-run tools/state_audit.py --update", out)

    def test_missing_manifest_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp)
            code, out = tree.run()
            self.assertEqual(code, 1, out)
            self.assertIn("manifest missing", out)


class WirePatternTest(unittest.TestCase):
    def test_manifest_pattern_handles_nested_loops(self):
        # The emission grammar of nested loops must group by frame
        # identity: u (outer u (inner qdd*))* — a flat-depth grouping
        # would reject interleaved streams like `u u qdd u qdd qdd`.
        source = CLEAN_SOURCE.replace(
            '  w.F64("mean", mean_);\n  w.I64("count", count_);',
            """  w.Count("rows", 2);
  for (int i = 0; i < 2; ++i) {
    w.Count("cols", 2);
    for (int j = 0; j < 2; ++j) {
      w.F64("cell", mean_);
    }
  }
  w.I64("count", count_);""").replace(
            '  mean_ = r.F64("mean");\n  count_ = r.I64("count");',
            """  const uint32_t rows = r.Count("rows", 64);
  for (uint32_t i = 0; i < rows; ++i) {
    const uint32_t cols = r.Count("cols", 64);
    for (uint32_t j = 0; j < cols; ++j) {
      mean_ = r.F64("cell");
    }
  }
  count_ = r.I64("count");""")
        with tempfile.TemporaryDirectory() as tmp:
            tree = FixtureTree(tmp, source=source)
            tree.pin_manifest()
            code, out = tree.run()
            self.assertEqual(code, 0, out)
            import json
            import re
            entry = json.loads(tree.manifest.read_text())["classes"]["Gauge"]
            pattern = entry["wire_pattern"]
            self.assertEqual(pattern, "^u(?:u(?:d)*)*i$")
            for stream in ("ui", "uudi", "uuddudddi"):
                self.assertTrue(re.fullmatch(pattern[1:-1], stream), stream)
            for stream in ("udi", "uu", "uudid"):
                self.assertFalse(re.fullmatch(pattern[1:-1], stream), stream)


# ------------------------------------------------------- clang frontend

def _writer_call(method, *args):
    """A `w.<method>(...)` CXXMemberCallExpr AST node."""
    return {
        "kind": "CXXMemberCallExpr",
        "inner": [
            {"kind": "MemberExpr", "name": method,
             "inner": [{"kind": "DeclRefExpr",
                        "type": {"qualType": "ccd::io::Writer"}}]},
        ] + list(args),
    }


def _reader_call(method, *args):
    node = _writer_call(method, *args)
    node["inner"][0]["inner"][0]["type"]["qualType"] = "ccd::io::Reader &"
    return node


def _member(name, decl_id):
    return {"kind": "MemberExpr", "name": name,
            "referencedMemberDecl": decl_id}


CLANG_AST_FIXTURE = {
    "kind": "TranslationUnitDecl",
    "inner": [
        {
            "kind": "CXXRecordDecl", "id": "0x100", "name": "Gauge",
            "completeDefinition": True,
            "loc": {"file": "src/gauge.h", "line": 3},
            "inner": [
                {"kind": "FieldDecl", "id": "0x101", "name": "mean_",
                 "loc": {"line": 8}},
                {"kind": "FieldDecl", "id": "0x102", "name": "count_",
                 "loc": {"line": 9}},
                # In-class declarations (no body).
                {"kind": "CXXMethodDecl", "id": "0x110", "name": "SaveState",
                 "loc": {"line": 5},
                 "inner": [{"kind": "ParmVarDecl",
                            "type": {"qualType": "ccd::io::Writer &"}}]},
                {"kind": "CXXMethodDecl", "id": "0x111", "name": "LoadState",
                 "loc": {"line": 6},
                 "inner": [{"kind": "ParmVarDecl",
                            "type": {"qualType": "ccd::io::Reader &"}}]},
                {"kind": "CXXMethodDecl", "id": "0x112", "name": "CloneState",
                 "loc": {"line": 7}, "inner": []},
            ],
        },
        # Out-of-line SaveState: w.F64 at top level, w.I64 inside a for.
        {
            "kind": "CXXMethodDecl", "id": "0x200", "name": "SaveState",
            "parentDeclContextId": "0x100",
            "inner": [
                {"kind": "ParmVarDecl",
                 "type": {"qualType": "ccd::io::Writer &"}},
                {"kind": "CompoundStmt", "inner": [
                    _writer_call("F64",
                                 {"kind": "StringLiteral",
                                  "value": "\"mean\""},
                                 _member("mean_", "0x101")),
                    {"kind": "ForStmt", "id": "0x300", "inner": [
                        _writer_call("I64", _member("count_", "0x102")),
                    ]},
                ]},
            ],
        },
        # Out-of-line LoadState: the if *condition* call is
        # unconditional, the then-branch call is conditional.
        {
            "kind": "CXXMethodDecl", "id": "0x201", "name": "LoadState",
            "parentDeclContextId": "0x100",
            "inner": [
                {"kind": "ParmVarDecl",
                 "type": {"qualType": "ccd::io::Reader &"}},
                {"kind": "CompoundStmt", "inner": [
                    {"kind": "IfStmt", "id": "0x400", "inner": [
                        _reader_call("Bool"),                 # condition
                        {"kind": "CompoundStmt", "inner": [   # then-branch
                            _reader_call("F64",
                                         _member("mean_", "0x101")),
                        ]},
                    ]},
                ]},
            ],
        },
        # Out-of-line CloneState returning Gauge(*this).
        {
            "kind": "CXXMethodDecl", "id": "0x202", "name": "CloneState",
            "parentDeclContextId": "0x100",
            "inner": [
                {"kind": "CompoundStmt", "inner": [
                    {"kind": "UnaryOperator", "opcode": "Deref",
                     "inner": [{"kind": "CXXThisExpr"}]},
                ]},
            ],
        },
    ],
}


class ClangFrontendTest(unittest.TestCase):
    """Pins ClangTU's reading of -ast-dump=json against a hand-written
    fixture, so the CI clang leg's parsing logic is tested without a
    clang binary in the container."""

    def setUp(self):
        tu = state_audit.ClangTU(CLANG_AST_FIXTURE, {"Gauge"})
        self.assertIn("Gauge", tu.classes)
        self.model = tu.classes["Gauge"]

    def test_fields_and_location(self):
        self.assertEqual([f for f, _ in self.model.fields],
                         ["mean_", "count_"])
        self.assertEqual(self.model.file, "src/gauge.h")

    def test_out_of_line_save_body_linked_by_context_id(self):
        save = self.model.surfaces["SaveState"]
        self.assertTrue(save.has_body)
        self.assertEqual([(c.unit, c.loop) for c in save.calls],
                         [("F64", 0), ("I64", 1)])
        self.assertEqual(save.refs, {"mean_", "count_"})

    def test_condition_calls_are_unconditional(self):
        load = self.model.surfaces["LoadState"]
        self.assertEqual([(c.unit, c.cond) for c in load.calls],
                         [("Bool", 0), ("F64", 1)])

    def test_whole_object_clone(self):
        self.assertTrue(self.model.surfaces["CloneState"].whole_object)


if __name__ == "__main__":
    unittest.main()

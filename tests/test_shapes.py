"""Tests for the symbolic shape/dtype abstract interpreter (repro.analysis.shapes).

Four layers of evidence:

- **algebra** — the Dim polynomial normal form, shape-spec parsing, and
  the dtype lattice behave as documented;
- **seeded violations** — for every failure class (shape mismatch,
  implicit broadcast, dtype creep) a fixture snippet seeded with the
  violation fires its checker, and the disciplined version of the same
  code stays silent;
- **real-source mutations** — a scratch copy of a *real* nn module with
  one line deleted from a ``forward`` body, or one output dim changed,
  produces a finding (the acceptance criterion for the interpreter's
  sensitivity);
- **layer specs & enforcement** — every annotated ``repro.nn`` layer
  has one annotated ``forward`` that interprets cleanly against its own
  declared spec, and the real ``src/repro`` tree is clean under both
  checkers.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.checks import DtypeChecker, ShapeChecker, all_checkers
from repro.analysis.linter import Linter, SourceModule
from repro.analysis.shapes import (
    CANONICAL_DTYPE,
    STAR,
    Dim,
    fresh_dim,
    interpret_class,
    library_registry,
    parse_shape,
    promote,
    provably_different,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

# A real on-disk rel_path so the interpreter resolves cross-file specs.
NN_LAYERS = "src/repro/nn/layers.py"


def run_checker(checker, source: str, rel_path: str = "src/repro/nn/fixture.py"):
    module = SourceModule(source, rel_path)
    return [f for f in checker.check(module) if not module.suppressed(f)]


# ---------------------------------------------------------------------------
# Dim algebra and spec parsing
# ---------------------------------------------------------------------------
class TestDimAlgebra:
    def test_normal_form_makes_equality_semantic(self):
        d, h = Dim.sym("d"), Dim.sym("h")
        assert d + h == h + d
        assert d * h == h * d
        assert (d + d) == Dim.const(2) * d
        assert d - d == Dim.const(0)

    def test_exact_division_round_trips(self):
        d, h = Dim.sym("d"), Dim.sym("h")
        head = (d * h) / h
        assert head == d
        assert (d * h) / (h * h) != d  # inexact stays symbolic, not equal

    def test_provably_different_requires_no_fresh_symbols(self):
        d = Dim.sym("d")
        assert provably_different(d, Dim.sym("e"))
        assert provably_different(Dim.const(2), Dim.const(3))
        assert not provably_different(d, d)
        # A fresh placeholder is never provably anything.
        assert not provably_different(d, fresh_dim("j"))

    def test_subst_composes_through_products(self):
        d, h = Dim.sym("dim"), Dim.sym("heads")
        per_head = d / h
        assert per_head.subst({"dim": Dim.const(64), "heads": Dim.const(8)}) == Dim.const(8)


class TestParseShape:
    def test_symbols_constants_and_products(self):
        dims = parse_shape("(B, 2, dim * heads)")
        assert dims == (Dim.sym("B"), Dim.const(2), Dim.sym("dim") * Dim.sym("heads"))

    def test_leading_star(self):
        dims = parse_shape("(..., in_features)")
        assert dims[0] is STAR and dims[1] == Dim.sym("in_features")

    def test_star_only_allowed_in_leading_position(self):
        assert parse_shape("(B, ..., d)") is None

    def test_single_dim_and_garbage(self):
        assert parse_shape("(m,)") == (Dim.sym("m"),)
        assert parse_shape("not a shape (") is None


class TestDtypeLattice:
    def test_promotion_is_numpy_ordered(self):
        assert promote("bool", "int64") == "int64"
        assert promote("int64", "float32") == "float32"
        assert promote("float32", "float64") == "float64"
        assert promote("float64", "any") == "any"
        assert CANONICAL_DTYPE == "float64"


# ---------------------------------------------------------------------------
# Seeded violations — one fixture per failure class
# ---------------------------------------------------------------------------
class TestSeededShapeMismatch:
    BAD = """
import numpy as np
from repro import nn
from repro.nn.spec import shape_spec

class Proj(nn.Module):
    def __init__(self, d_in, d_out):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self.weight = nn.Parameter(np.zeros((d_in, d_out)))

    @shape_spec(inputs={"x": "(B, d_in)"}, out="(B, d_in)", params=("weight",))
    def forward(self, x):
        return x.matmul(self.weight)
"""

    def test_return_shape_mismatch_fires(self):
        findings = run_checker(ShapeChecker(), self.BAD)
        assert len(findings) == 1
        assert findings[0].symbol == "Proj.forward"
        assert "d_out" in findings[0].message and "d_in" in findings[0].message

    def test_correct_spec_is_silent(self):
        good = self.BAD.replace('out="(B, d_in)"', 'out="(B, d_out)"')
        assert run_checker(ShapeChecker(), good) == []

    def test_elementwise_incompatible_dims_fire(self):
        source = """
from repro import nn
from repro.nn.spec import shape_spec

class Add(nn.Module):
    @shape_spec(inputs={"x": "(B, d)", "y": "(B, e)"}, out="(B, d)")
    def forward(self, x, y):
        return x + y
"""
        findings = run_checker(ShapeChecker(), source)
        assert len(findings) == 1
        assert "incompatible dims" in findings[0].message


class TestSeededBroadcast:
    BAD = """
from repro import nn
from repro.nn.spec import shape_spec

class Scale(nn.Module):
    @shape_spec(inputs={"x": "(B, L)", "gate": "(B, 1)"}, out="(B, L)")
    def forward(self, x, gate):
        return x * gate
"""

    def test_declared_size_one_stretch_fires(self):
        findings = run_checker(ShapeChecker(), self.BAD)
        assert len(findings) == 1
        assert "implicit broadcast" in findings[0].message
        assert "size-1" in findings[0].message

    def test_trailing_vector_add_is_idiomatic_and_silent(self):
        # bias/gamma-style rank-lowering broadcasts are not the silent-
        # stretch class and must not fire.
        source = """
from repro import nn
from repro.nn.spec import shape_spec

class Bias(nn.Module):
    @shape_spec(inputs={"x": "(B, L, d)", "bias": "(d,)"}, out="(B, L, d)")
    def forward(self, x, bias):
        return x + bias
"""
        assert run_checker(ShapeChecker(), source) == []


class TestSeededDtypeCreep:
    BAD = """
import numpy as np

def half(x):
    return x.astype(np.float32)

def mask(n):
    return np.zeros(n, dtype="float16")
"""

    def test_non_canonical_dtypes_fire_in_numeric_scope(self):
        findings = run_checker(DtypeChecker(), self.BAD, "src/repro/nn/fix.py")
        assert len(findings) == 2
        assert all(f.checker == "dtype-lattice" for f in findings)
        joined = " | ".join(f.message for f in findings)
        assert "float32" in joined and "float16" in joined

    def test_canonical_dtypes_are_silent(self):
        good = """
import numpy as np

def ok(x, n):
    return x.astype(np.float64) + np.zeros(n, dtype=np.int64) + np.ones(n, dtype=bool)
"""
        assert run_checker(DtypeChecker(), good, "src/repro/core/fix.py") == []

    def test_out_of_scope_file_is_ignored(self):
        # Tools/tests may use narrow dtypes freely; the canonical-dtype
        # rule binds only the numeric core.
        assert run_checker(DtypeChecker(), self.BAD, "src/repro/tools/fix.py") == []


# ---------------------------------------------------------------------------
# Real-source mutations — the acceptance criterion
# ---------------------------------------------------------------------------
class TestRealSourceMutations:
    """A scratch copy of a real module with one seeded edit must produce
    a finding; the pristine copy must not."""

    def mutate(self, rel_path: str, old: str, new: str, count: int = -1) -> SourceModule:
        text = (SRC_ROOT.parent.parent / rel_path).read_text()
        assert old in text, f"mutation anchor vanished from {rel_path}: {old!r}"
        return SourceModule(text.replace(old, new, count), rel_path)

    def test_changing_linear_output_dim_fires(self):
        module = self.mutate(
            NN_LAYERS, 'out="(..., out_features)"', 'out="(..., in_features)"'
        )
        findings = ShapeChecker().check(module)
        # The one forward interprets against the (now wrong) declared out.
        assert {f.symbol for f in findings} == {"Linear.forward"}
        assert all("out_features" in f.message for f in findings)

    def test_deleting_forward_line_fires(self):
        # Dropping the blocks' ff2 projection adds the ff_dim-wide hidden
        # state to the dim-wide residual stream.
        module = self.mutate(
            "src/repro/nn/transformer.py",
            "x = x + self.dropout(self.ff2(hidden))",
            "x = x + self.dropout(hidden)",
        )
        findings = ShapeChecker().check(module)
        assert {f.symbol for f in findings} == {
            "TransformerEncoderLayer.forward", "TransformerDecoderLayer.forward",
        }
        assert all("ff_dim" in f.message for f in findings)

    @pytest.mark.parametrize(
        "rel_path",
        [
            "src/repro/nn/layers.py",
            "src/repro/nn/attention.py",
            "src/repro/nn/lstm.py",
            "src/repro/nn/transformer.py",
            "src/repro/nn/positional.py",
            "src/repro/nn/kernels.py",
        ],
    )
    def test_pristine_module_is_silent(self, rel_path):
        text = (SRC_ROOT.parent.parent / rel_path).read_text()
        module = SourceModule(text, rel_path)
        for checker in (ShapeChecker(), DtypeChecker()):
            findings = checker.check(module)
            assert findings == [], "\n".join(f.format() for f in findings)


# ---------------------------------------------------------------------------
# Symbolic specs of every repro.nn layer
# ---------------------------------------------------------------------------
# Every param-bearing layer of the substrate and its annotated methods.
LAYER_METHODS = {
    "Linear": {"forward"},
    "LayerNorm": {"forward"},
    "Embedding": {"forward"},
    "Dropout": {"forward"},
    "MLP": {"forward"},
    "LSTMCell": {"forward"},
    "LSTM": {"forward"},
    "ChildSumTreeLSTM": set(),  # tree recursion: node_forward is data-dependent
    "MultiHeadAttention": {"forward", "project_kv"},
    "TransformerEncoderLayer": {"forward"},
    "TransformerEncoder": {"forward"},
    "TransformerDecoderLayer": {"forward"},
    "TransformerDecoder": {"forward", "project_memory_kv"},
}


class TestLayerSpecs:
    @pytest.fixture(scope="class")
    def registry(self):
        registry = library_registry(NN_LAYERS)
        assert registry is not None, "library registry must load from the repo tree"
        return registry

    @pytest.mark.parametrize("layer", sorted(LAYER_METHODS))
    def test_layer_is_annotated_and_interprets_cleanly(self, registry, layer):
        info = registry.classes[layer]
        assert LAYER_METHODS[layer] <= set(info.methods), (
            f"{layer} is missing @shape_spec on {LAYER_METHODS[layer] - set(info.methods)}"
        )
        problems = interpret_class(registry, info)
        assert problems == [], "\n".join(p.message for p in problems)

    DUAL_MODE = sorted(
        layer for layer, methods in LAYER_METHODS.items()
        if "forward" in methods and layer not in ("Embedding", "Dropout")
    )

    @pytest.mark.parametrize("layer", DUAL_MODE)
    def test_dual_modes_declare_identical_specs(self, registry, layer):
        # Recording and not recording run this one annotated forward, so
        # both modes share its spec by construction; pin the construction:
        # a declared out spec, and no infer_* twin that could diverge.
        info = registry.classes[layer]
        assert info.methods["forward"].raw_out is not None
        assert not [name for name in info.func_nodes if name.startswith("infer_")]

    def test_kernels_are_annotated(self, registry):
        for kernel in ("matmul", "linear", "layer_norm", "relu", "sigmoid",
                       "softmax", "log_softmax", "masked_fill"):
            assert kernel in registry.functions, f"kernels.{kernel} lost its @shape_spec"

    def test_positional_encodings_are_annotated(self, registry):
        assert parse_shape(registry.functions["sinusoidal_encoding"].raw_out) == (
            Dim.sym("length"), Dim.sym("dim"),
        )
        assert "tree_path_encoding" in registry.functions


# ---------------------------------------------------------------------------
# the enforcement test: the real tree is clean under the new checkers
# ---------------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_has_zero_shape_findings(self):
        linter = Linter([ShapeChecker(), DtypeChecker()])
        findings = linter.run_paths([SRC_ROOT], root=SRC_ROOT.parent.parent)
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)
        # And the stats the CLI exposes account for every checker.
        assert set(linter.stats) == {"shape-spec", "dtype-lattice"}


# ---------------------------------------------------------------------------
# CLI: --only / --list-checkers / per-checker stats
# ---------------------------------------------------------------------------
class TestCLI:
    BAD_FILE = "import time\n\ndef f():\n    return time.time()\n"

    def test_list_checkers_names_every_registered_checker(self, capsys):
        assert analysis_main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        for checker in all_checkers():
            assert checker.name in out

    def test_only_restricts_to_named_checkers(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        # wall-clock violation is invisible to the shape checker...
        assert analysis_main(
            [str(tmp_path), "--no-baseline", "--fail-on-findings", "--only", "shape-spec"]
        ) == 0
        # ...and caught when its own checker is selected.
        assert analysis_main(
            [str(tmp_path), "--no-baseline", "--fail-on-findings",
             "--only", "wall-clock", "--only", "shape-spec"]
        ) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_unknown_only_name_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            analysis_main([str(tmp_path), "--only", "no-such-checker"])
        assert excinfo.value.code == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_json_reports_per_checker_counts_and_wall_time(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(self.BAD_FILE)
        assert analysis_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["checkers"]
        assert stats["wall-clock"]["findings"] == 1
        assert stats["shape-spec"]["findings"] == 0
        assert all(
            entry["seconds"] >= 0 and isinstance(entry["findings"], int)
            for entry in stats.values()
        )

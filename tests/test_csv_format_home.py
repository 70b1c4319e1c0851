"""The 9-significant-digit format has one home per file kind.

evaluation.py turns numbers into every CSV cell the package writes, and
config.py writes resolved.cfg's floats in the same format when that reads
back exactly. No other module in src/padlander spells the format.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "padlander").glob("*.py"))


def test_only_evaluation_and_config_spell_the_format():
    assert [p.name for p in MODULES if ".9g" in p.read_text()] == ["config.py", "evaluation.py"]

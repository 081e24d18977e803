"""Each weight family's blocks are written down once.

In ``weight_models`` a read of ``Family.<member>`` may appear only in the
``_BLOCKS`` table and as the default of ``WeightSpec.family``.  Every other
reader (rho's values, its degree, the m' rule, the families with a factor)
goes through the table, so a new family is one new row, not a new branch in
each reader.
"""
import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "bszego" / "weight_models.py"


def _allowed(tree):
    """The table's assignment and the default of WeightSpec's family field."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_BLOCKS" for target in node.targets):
            yield node
        elif isinstance(node, ast.ClassDef) and node.name == "WeightSpec":
            for field in node.body:
                if (isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                        and field.target.id == "family"):
                    yield field


def stray_member_reads(source):
    """(line, member) of every ``Family.<member>`` read outside the allowed places."""
    tree = ast.parse(source)
    allowed = {id(node) for place in _allowed(tree) for node in ast.walk(place)}
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "Family" and id(node) not in allowed
    )


def test_family_members_are_read_only_in_the_table():
    assert stray_member_reads(SOURCE.read_text()) == []


def test_a_second_chain_is_caught():
    source = SOURCE.read_text()
    chain = (
        "\n\ndef _is_squared(spec):\n"
        "    if spec.family is Family.SquaredCosPlusCosh:\n"
        "        return True\n"
        "    return spec.family in (Family.ProductCosPlusCosh,)\n"
    )
    lines = source.count("\n") + 1
    assert stray_member_reads(source + chain) == [
        (lines + 3, "SquaredCosPlusCosh"), (lines + 5, "ProductCosPlusCosh")]

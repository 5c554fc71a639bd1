"""Every JSON input in src/scoopgp is parsed in one place, model.read_record.

A hand-written reader brings its own schema and type checks with it, and
those drift from the one rule read_fields keeps for every record, a
trace included. So json.loads and json.load have no caller in src/ but
read_record, and nothing imports them from json under another name.
"""
import ast
from pathlib import Path

import scoopgp

SRC = Path(scoopgp.__file__).parent
PARSERS = {"load", "loads", "JSONDecoder"}


def json_parsers(tree: ast.Module, module: str) -> list[str]:
    """module.function (or module alone, at module level) of each read
    of json.load, json.loads or json.JSONDecoder, and module of each
    import of one of them from json."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in PARSERS
                    and isinstance(child.value, ast.Name) and child.value.id == "json"):
                found.append(owner)
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.extend(owner for alias in child.names if alias.name in PARSERS)
            inner = f"{owner}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            visit(child, inner)

    visit(tree, module)
    return found


def test_json_is_parsed_only_by_read_record():
    found = [
        caller
        for path in sorted(SRC.glob("*.py"))
        for caller in json_parsers(ast.parse(path.read_text()), path.stem)
    ]
    assert found == ["model.read_record"]


def test_every_way_to_reach_the_parser_is_found():
    tree = ast.parse(
        "import json\n"
        "from json import loads as parse\n"
        "table = json.load(open('t.json'))\n"
        "class K:\n"
        "    def read(self, text):\n"
        "        return json.loads(text)\n"
        "def decoder():\n"
        "    return json.JSONDecoder()\n"
        "def write(x):\n"
        "    return json.dumps(x)\n"
    )
    assert json_parsers(tree, "m") == ["m", "m", "m.K.read", "m.decoder"]

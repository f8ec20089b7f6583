"""The README agrees with the code: its Python examples run as written,
and its reads table is the CLI's ``_READS``."""

import os
import re

from projsd import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# The mapping column of the reads table, as the keys of ``cli._READS``.
MAPPINGS = {"top level": "config", "`solver`": "solver",
            "`diagnostics`": "diagnostics", "`output`": "output",
            "`levels[i]`": "levels[i]", "`model`": "model", "`set`": "set",
            "`space`": "space", "`dataSpace`": "dataSpace",
            "`data`": "data", "`schedule`": "schedule"}


def read_readme():
    with open(README) as fh:
        return fh.read()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", read_readme(),
                        flags=re.M | re.S)
    assert blocks
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"),
             {"__name__": "readme"})


def readme_reads():
    """``{(mapping, context): keys}`` of the README's reads table.  A
    blank mapping cell repeats the row above; "single, multilevel mode"
    stands for both modes, "the other modes" for the mapping's contexts
    that no row above names, a blank context for the mapping's one
    context, and "nothing" for no key."""
    lines = read_readme().splitlines()
    start = lines.index("| mapping | context | reads |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip()
                     for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    found, mapping = {}, None
    for cell, context, keys in rows:
        mapping = MAPPINGS[cell] if cell else mapping
        table = cli._READS[mapping]
        if context == "the other modes":
            contexts = [c for c in table if (mapping, c) not in found]
        elif context == "":
            contexts = list(table)
            assert len(contexts) == 1, mapping
        elif context.endswith(" mode") and ", " in context:
            contexts = [f"{c} mode" for c in context[:-5].split(", ")]
        else:
            contexts = [c for c in table if table[c].name == context]
            assert contexts, (mapping, context)
        for c in contexts:
            assert (mapping, c) not in found, (mapping, c)
            found[mapping, c] = "" if keys == "nothing" \
                else keys.strip("`").replace("\\|", "|")
    return found


def test_readme_reads_table_is_the_cli_table():
    found = readme_reads()
    assert set(found) == {(m, c) for m, table in cli._READS.items()
                          for c in table}
    for (mapping, context), keys in found.items():
        want = cli._READS[mapping][context]
        got = cli._table({context: keys})[context]
        # The keys, the required keys (!) and the exactly-one pairs (a|b).
        assert (got.reads, set(got.required), set(got.pairs)) \
            == (want.reads, set(want.required), set(want.pairs)), \
            (mapping, context, keys)

"""The report text as the ``json`` module writes it: the oracle for
:func:`sheafbench.jsonio.dump_report`, which builds the same bytes directly."""
import json


def dump_report(rendered) -> str:
    return json.dumps(rendered, sort_keys=True, indent=2) + "\n"

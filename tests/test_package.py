"""The package exports each module's public names, each declared once."""

import logsens
from logsens import classical, matexp, quantum, sensan

MODULES = (matexp, sensan, classical, quantum)


def test_all_is_the_union_of_the_module_alls():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert logsens.__all__ == names


def test_every_name_resolves_to_its_module_object():
    star = {}
    exec("from logsens import *", star)
    assert set(star) - {"__builtins__"} == set(logsens.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(logsens, name) is getattr(module, name)
            assert star[name] is getattr(module, name)

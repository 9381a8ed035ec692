"""No environment variable or ``/proc`` or ``/sys`` file steers the package.

The threads of a long transform follow from what the process is (see ``rirshape.dsp``):
no variable sets them, and nothing reads the machine's load or a CPU quota. The one
read allowed is the CLI's fallback output directory, RIRSHAPE_OUT_DIR. The rule is
``env`` in ``test_source_rules.RULES``.
"""

import pytest

from rirshape import cli
from test_source_rules import DETECTOR_CASES, MODULES, assert_module_keeps, assert_owner_holds, findings


@pytest.mark.parametrize("module", MODULES)
def test_no_environment_or_proc_read(module):
    assert_module_keeps("env", module)


def test_cli_reads_only_the_out_dir_variable():
    assert cli.ENV_OUT_DIR == "RIRSHAPE_OUT_DIR"
    assert_owner_holds("env", "cli.py")


@pytest.mark.parametrize("source", DETECTOR_CASES["env"][0])
def test_detector_flags(source):
    assert findings("env", source)


@pytest.mark.parametrize("source", DETECTOR_CASES["env"][1])
def test_detector_allows(source):
    assert not findings("env", source)

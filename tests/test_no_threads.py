"""Only ``rirshape.dsp`` starts threads or sets the process's memory policy.

``dsp`` splits its long transforms over helper threads that call only numpy, and it
sets glibc's allocator at import and registers the trim that runs before every fork,
so no other module needs ``ctypes``, forks a process itself or adds a fork hook.
Process pools (``ProcessPoolExecutor``) are allowed. The rules are ``threads`` and
``memory`` in ``test_source_rules.RULES``.
"""

import pytest

from test_source_rules import DETECTOR_CASES, MODULES, assert_module_keeps, assert_owner_holds, findings


@pytest.mark.parametrize("module", MODULES)
def test_no_thread_import(module):
    assert_module_keeps("threads", module)


@pytest.mark.parametrize("module", MODULES)
def test_no_memory_policy_outside_dsp(module):
    assert_module_keeps("memory", module)


def test_dsp_is_the_one_module_with_threads():
    assert_owner_holds("threads", "dsp.py")


def test_dsp_is_the_one_module_with_the_memory_policy():
    assert_owner_holds("memory", "dsp.py")


@pytest.mark.parametrize("source", DETECTOR_CASES["threads"][0])
def test_detector_flags(source):
    assert findings("threads", source)


@pytest.mark.parametrize("source", DETECTOR_CASES["threads"][1])
def test_detector_allows(source):
    assert not findings("threads", source)


@pytest.mark.parametrize("source", DETECTOR_CASES["memory"][0])
def test_memory_policy_detector_flags(source):
    assert findings("memory", source)


@pytest.mark.parametrize("source", DETECTOR_CASES["memory"][1])
def test_memory_policy_detector_allows(source):
    assert not findings("memory", source)

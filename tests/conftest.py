import os

from hypothesis import HealthCheck, settings

from esl import realnum

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def use_cores(monkeypatch, cores, quota=None):
    """Make the affinity lookup report the given number of usable cores, and
    the CPU quota lookup the given whole CPUs (None: no quota)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(realnum, "_cpu_quota", lambda: quota)

"""repro.record -- deterministic binary event log, replay and waveforms.

The correctness-tooling backbone for schedule-level debugging:

* :mod:`repro.record.format` -- the compact, versioned, streamable
  binary log format (write, read, diff);
* :mod:`repro.record.recorder` -- :class:`FlightRecorder`, the pure
  observer of the kernel's dispatches and the machine's ``obs`` emit
  points, which never perturbs the schedule, and :func:`record_run`;
* :mod:`repro.record.replay` -- the replay-purity check
  (:func:`replay_log`) with first-divergence bisection;
* :mod:`repro.record.timeline` -- time-travel state reconstruction
  from the log alone (seek, interval queries, txn spans);
* :mod:`repro.record.vcd` -- VCD waveform export for GTKWave etc.
"""

from repro.record.format import (LOG_SCHEMA, SCHEMA_HISTORY, Divergence,
                                 LogFormatError, LogImage, LogRecord,
                                 first_divergence, load_log)
from repro.record.recorder import (FlightRecorder, RecordedRun,
                                   artifact_dir, record_run)
from repro.record.replay import ReplayReport, replay_log
from repro.record.timeline import MachineSnapshot, Timeline
from repro.record.vcd import export_vcd

__all__ = [
    "LOG_SCHEMA", "SCHEMA_HISTORY", "Divergence", "LogFormatError",
    "LogImage", "LogRecord", "first_divergence", "load_log",
    "FlightRecorder", "RecordedRun", "artifact_dir", "record_run",
    "ReplayReport", "replay_log", "MachineSnapshot", "Timeline",
    "export_vcd",
]

"""One module per probe kind, named after the kind (`aker-cert` is
`aker_cert`).  Each module holds everything the pipeline knows about
its kind:

* `validate(exp, probe)` checks a `[probe NAME]` section against the
  preconditions of the operation it will invoke, by calling the checks
  that operation makes itself, and stores the parsed values in
  `probe.settings`, under their config keys; a `ValueError` it raises
  becomes a `ConfigError` naming the section;
* `run(exp, probe)` makes the library call and hands the result, raw
  values and records carrying the full witness, to `report.encode`,
  which writes the JSON-compatible payload; a record is written as the
  object of its fields, so a record that reaches a body names its
  fields as the body does, and no result field is copied here by hand;
* `explain` is the text `qmprobe explain KIND` prints;
* `replay(exp, probe, result)`, only where a recorded witness is
  cheaper to check than to find (`defect`, `novikov-solve`), rebuilds
  the payload from `probe.settings` with the recorded witness standing
  in for the search, and returns it; a recorded status it cannot
  replay raises `ReplayError`.

A kind compares nothing: `verify` holds the one replay rule, and
rebuilds a payload through the kind's `replay` where it has one and
otherwise by re-running the probe, then compares it with the recorded
one.

A kind module from-imports the layers it calls, and
`probes.kind_module` imports it the first time a command names its
kind, so a command loads only the layers of the kinds it names.  The
functions are called through the module's globals rather than stored,
so a wrapper installed on a layer's attribute before the kind is
imported (as the benchmark's tracer does) sees every call.
"""

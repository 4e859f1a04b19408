(** Telemetry facade: metric registry, span tracing, exposition.

    Instrumented structures register named series at creation time
    ({!counter} / {!gauge} / {!histogram} are get-or-create; per-structure
    series add an [("instance", {!instance} prefix)] label) and then record
    through the returned {!Metric} handles — single machine-word stores on
    the hot paths.  {!with_span} wraps coarse operations (a list rebuild, a
    query) and records wall time plus per-span counter deltas.

    {b Overhead model.}  Counters and gauges are always live: they are the
    algorithms' own work accounting (e.g. [Heavy_hitters.work_counters];
    [Fixed_window] tallies in plain ints and flushes once per call, so no
    counter store sits in its probe loops).  Everything with
    real per-event cost — span tracing, duration histograms — is gated by
    {!set_enabled}, whose disabled path is a single boolean load (measured
    < 3% total overhead on the fixed-window hot path; see EXPERIMENTS.md).
    Telemetry starts disabled. *)

(** {2 Runtime control} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_latency_enabled : bool -> unit
(** Switch for {!Latency} duration tracking, independent of spans: a GK
    insert per timed section, collectable without full span capture. *)

val latency_enabled : unit -> bool

val set_clock : (unit -> float) -> unit
(** Clock used for span timing, in seconds.  Defaults to [Sys.time]; inject
    [Unix.gettimeofday] from binaries that link unix, a fake from tests. *)

val now : unit -> float

(** {2 Registration} *)

val counter : ?labels:Metric.labels -> string -> Metric.counter
val gauge : ?labels:Metric.labels -> string -> Metric.gauge
val histogram : ?labels:Metric.labels -> string -> Metric.histogram

val instance : string -> string
(** Fresh instance name for a structure family: ["se0"], ["se1"], ... —
    used as the [("instance", _)] label value of per-structure series. *)

(** {2 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** See {!Span.with_span}.  One boolean load when telemetry is disabled. *)

val plane_collisions : unit -> int
(** The [obs.plane_collisions] witness: recording operations that missed
    the per-domain plane fast path because more than {!Plane.max_slots}
    domains were alive.  Flat (zero) whenever the contention-free path is
    actually in use — the analogue of the engine's [engine.lock_ops]
    lock-freedom witness. *)

(** {2 Exposition} *)

type format = Text | Json | Prom

val format_of_string : string -> format option
(** ["text"], ["json"], ["prom"] (or ["prometheus"]). *)

val format_to_string : format -> string

val render : format -> string
(** Render the current registry contents in the given format. *)

val render_trace : unit -> string
(** The span trace as JSON lines (see {!Sink.trace_json_lines}). *)

val render_chrome_trace : unit -> string
(** The span trace as one Chrome trace-event JSON object, one track per
    recording domain (see {!Sink.chrome_trace}). *)

(** {2 Lifecycle} *)

val reset : unit -> unit
(** Zero all metric values and drop the span trace; registrations and the
    handles held by live structures survive.  Also zeroes work accounting
    read back from registry counters (e.g. [Heavy_hitters.work_counters]);
    [Fixed_window.work_counters] reads per-instance tallies and is not
    affected. *)

val clear : unit -> unit
(** Drop all registrations, the trace, and instance-name sequences.
    Handles held by live structures keep counting but are no longer
    exported; for test isolation. *)

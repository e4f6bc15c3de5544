(** Leveled structured logging: one JSON object per line.

    Same contract as the rest of {!Obs}: the default state is a no-op
    and every emit site pays one [Atomic.get] plus a branch until
    {!enable} turns logging on. Lines are rendered with {!Json} (so
    [Json.check_lines] accepts any log output) and written under a
    mutex so concurrent domains never interleave bytes within a line.

    Every line carries [ts] (wall-clock epoch seconds — logs are for
    correlation with the outside world, unlike span durations which use
    the monotonic {!Clock}), [level], [event], the ambient
    [request_id] when inside {!Obs.with_request}, and any caller
    fields.

    Warn/error lines are deduplicated per event name: after the first
    line, repeats of the same event within {!val-window} seconds are
    suppressed and counted; the next emitted line carries a
    [suppressed] field with the count. Debug/info lines are never
    deduplicated. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option
(** Inverse of {!level_to_string}; [None] on anything else. *)

(** {1 Lifecycle} *)

val enable : ?level:level -> ?file:string -> unit -> unit
(** Start emitting lines at [level] (default [Info]) and above. With
    [file], lines append to that path (opened immediately; raises
    [Sys_error] if it cannot be opened); otherwise they go to stderr.
    Calling {!enable} again atomically switches level and sink (the
    previous file sink is closed) — idempotent in the sense that
    enabling twice with the same arguments is harmless. *)

val disable : unit -> unit
(** Back to the no-op default. A file sink is flushed and closed. *)

val enabled : level -> bool
(** [enabled l] is true when a line at level [l] would be emitted.
    Guard for expensive field construction. *)

(** {1 Emitting} *)

val debug :
  ?request_id:string -> ?fields:(string * Json.t) list -> string -> unit

val info :
  ?request_id:string -> ?fields:(string * Json.t) list -> string -> unit

val warn :
  ?request_id:string -> ?fields:(string * Json.t) list -> string -> unit

val error :
  ?request_id:string -> ?fields:(string * Json.t) list -> string -> unit
(** [error ~fields event] emits
    [{"ts":…,"level":"error","event":event,…fields}]. The [event]
    string is the dedup key for warn/error rate limiting. The line's
    [request_id] is [?request_id] when given, else the calling domain's
    ambient id ({!Obs.current_request}). Threads of one domain share
    that ambient id, so code running on systhreads passes the id
    explicitly. *)

(** {1 Dedup window} *)

val window : float
(** Seconds within which repeated warn/error events (same name) are
    suppressed: 1.0. *)

(** Persistent run registry: longitudinal history over {!Rt_obs.Artifact}
    directories.

    A registry is a plain directory (default [_obs/registry], overridable via
    [$OPTPROB_OBS_REGISTRY]) holding one compact JSON record per ingested run
    under [records/] and an optional [baseline.json] naming the promoted
    baseline record.

    Durability model: every write is atomic (sibling temp file + rename), a
    record is one immutable file so concurrent writers never contend, and
    readers scan the record files themselves, skipping corrupt or truncated
    ones.  There is no index to fall out of step with the records. *)

val schema_record : string
(** ["optprob-registry/1"], the per-record document schema. *)

val default_dir : unit -> string
(** [$OPTPROB_OBS_REGISTRY] when set and non-empty, else [_obs/registry]. *)

(** One row of [obs list]: the record's identity and config slice, without
    its metrics. *)
type summary = {
  id : string;
  ts : float;  (** ingestion time, seconds since the epoch *)
  git_rev : string;
  circuit : string option;
  engine : string option;
  config : (string * string) list;  (** config slice from the manifest, sorted *)
  wall_s : float;
}

(** A fully loaded record: its summary, the flat derived metric map
    ({!Rt_obs.Artifact.numbers} at ingest time) and the raw document. *)
type record = {
  r_summary : summary;
  r_metrics : (string * float) list;  (** sorted by name *)
  r_doc : Rt_obs.Json.t;
}

type filter = {
  f_engine : string option;  (** exact match *)
  f_circuit : string option;  (** exact match *)
  f_git_rev : string option;  (** prefix match, so short revs work *)
  f_config : (string * string) list;  (** all [K=V] pairs must match *)
}

val no_filter : filter

val ingest :
  ?id:string -> registry:string -> source:string -> Rt_obs.Artifact.t -> (string, string) result
(** Store one run (typically [Rt_obs.Artifact.read dir], with [source] the
    directory) as a new record.  Returns the record
    id — [YYYYMMDDTHHMMSS-xxxxxx] unless [?id] pins it.  [Error] when the id
    already exists or the write fails. *)

val list : ?filter:filter -> registry:string -> unit -> summary list
(** All records oldest-first, read from the record files on disk.
    Unreadable records are skipped.  An absent registry directory is an
    empty registry. *)

val load : registry:string -> string -> (record, string) result

val metric : record -> string -> float option
(** Look up one derived metric by name (e.g. ["pipeline.total_us"],
    ["oracle.query.us.p90"], ["span.optimize.us"], ["wall_s"]). *)

val metric_names : record -> string list

val artifact : record -> Rt_obs.Artifact.t
(** The run a record stores, as {!Rt_obs.Artifact.read} would return it for
    the ingested directory — so {!Rt_obs.Diff.compare} diffs records and
    directories alike. *)

(** {1 Baseline} *)

val promote : registry:string -> string -> (unit, string) result
(** Mark a record id as the promoted baseline ([Error] if it doesn't exist). *)

val promoted : registry:string -> string option
val clear_baseline : registry:string -> unit

(** {1 Retention} *)

val gc : ?keep:int -> ?max_age_s:float -> registry:string -> unit -> int
(** Delete records beyond the newest [keep] and/or older than [max_age_s]
    seconds (the promoted baseline always survives) and return the number
    of records removed. *)

(** {1 Trends} *)

type point = { p_id : string; p_ts : float; p_value : float }

type series = {
  s_metric : string;
  s_points : point list;  (** oldest first; runs lacking the metric are skipped *)
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
}

val series : ?filter:filter -> ?last:int -> registry:string -> string -> series
(** Time series of one metric over the last [last] (default 30) matching
    runs.  Statistics are [nan] when the series is empty. *)

(** A flagged step change: point [st_index] of the series jumped by
    [st_ratio] (deviation over threshold, >= 1) relative to the median of its
    trailing window. *)
type step = {
  st_index : int;
  st_value : float;
  st_median : float;
  st_ratio : float;
  st_up : bool;
}

val step_changes : ?window:int -> ?k:float -> ?rel:float -> float array -> step list
(** Robust step-change detection: each point with at least 3 predecessors is
    compared to the median of the [window] (default 8) preceding values; it
    is flagged when its absolute deviation exceeds
    [max (k * 1.4826 * MAD, rel * |median|)] (defaults [k = 4.0],
    [rel = 0.25]).  Median/MAD make the detector robust to single-run noise
    spikes inside the window. *)

val sparkline : float array -> string
(** Min-max scaled Unicode block sparkline, e.g. ["▁▃▆█"]; empty input gives
    the empty string. *)

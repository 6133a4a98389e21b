(** Mergeable fixed-memory log-linear latency histograms.

    Values (nanoseconds, non-negative) are counted into buckets whose
    width grows geometrically: each power-of-two range is split into
    {!subbuckets} linear sub-buckets, so the relative quantization
    error is bounded by [1/subbuckets] (6.25%) across the whole range
    — the HDR-histogram layout.  A histogram is a flat [int array]
    (plus exact count/sum/min/max), so recording is O(1), memory is
    fixed (~6 KB), and two histograms merge by adding bucket counts —
    which makes per-fingerprint and global aggregation associative. *)

type t

val subbuckets : int
(** Linear sub-buckets per power of two (16). *)

val bucket_count : int
(** Total buckets; values beyond the last bucket's range clamp into
    it (the exact maximum is still tracked by {!max_value}). *)

val create : unit -> t

val record : t -> int64 -> unit
(** Count one value.  Negative values clamp to 0. *)

val record_n : t -> int64 -> int -> unit
(** Count the same value [n] times. *)

val count : t -> int

val total : t -> int64
(** Exact sum of recorded values. *)

val min_value : t -> int64
(** Exact; 0 when empty. *)

val max_value : t -> int64
(** Exact; 0 when empty. *)

val percentile : t -> float -> int64
(** [percentile h p] for [p] in [0,100]: the upper bound of the bucket
    holding the value of rank [ceil(p/100 * count)] — within one
    bucket (≤ 6.25% relative error) of the exact quantile.  0 when
    empty; the exact maximum for the last-ranked value. *)

val p50 : t -> int64
val p90 : t -> int64
val p99 : t -> int64

val bucket_index : int64 -> int
(** The bucket a value falls into (exposed for accuracy tests). *)

val bucket_upper_bound : int -> int64
(** Largest value counted by bucket [i]. *)

val merge_into : into:t -> t -> unit
(** Add every bucket and the exact aggregates of the second histogram
    into [into]. *)

val merge : t -> t -> t
(** Fresh histogram holding both inputs' samples. *)

val reset : t -> unit
val is_empty : t -> bool

val nonzero_buckets : t -> (int64 * int) list
(** [(upper_bound, count)] for every non-empty bucket, ascending —
    the sparse form the Prometheus and JSON renderers emit. *)

val quantiles_to_json : t -> string
(** One-line JSON object:
    [{"count":N,"total_ns":…,"min_ns":…,"p50_ns":…,"p90_ns":…,
      "p99_ns":…,"max_ns":…}]. *)

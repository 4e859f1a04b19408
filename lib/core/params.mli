(** Shared parameter handling for the streaming histogram algorithms. *)

type refresh_policy =
  | Eager        (** rebuild once per applied slice: after every [push], and
                     once at the end of every [push_many] / [push_slice]
                     (the paper's per-arrival cost model only when points
                     arrive one at a time) *)
  | Lazy         (** never rebuild on arrival; the first query rebuilds *)
  | Every of int (** rebuild once the arrivals since the last rebuild reach k
                     (checked at the end of each applied slice); queries
                     still force a rebuild *)
(** When the fixed-window maintainer rebuilds its interval lists relative to
    arrivals.  Queries ([current_error] / [current_histogram] / [herror])
    always see fresh lists regardless of the policy.  A batched slice is
    one arrival event for [Eager]: the sharded engine applies one slice per
    shard per ingest batch, so under [serve] [Eager] means one rebuild per
    shard per batch, not one per point. *)

val policy_to_string : refresh_policy -> string
(** ["eager"], ["lazy"], or ["every:<k>"] — the CLI / report spelling. *)

val policy_of_string : string -> refresh_policy option
(** Inverse of {!policy_to_string}; [None] on anything else. *)

type t = private {
  buckets : int;  (** B, the space budget in buckets; >= 1 *)
  epsilon : float;(** the approximation precision; > 0 *)
  delta : float;  (** the per-level interval slack, epsilon / (2 B) as in the paper *)
  policy : refresh_policy; (** arrival-time rebuild policy; [Lazy] unless {!with_policy}d *)
}

val make : buckets:int -> epsilon:float -> t
(** Validates and derives [delta = epsilon /. (2. *. buckets)].
    Raises [Invalid_argument] on non-positive arguments. *)

val make_with_delta : buckets:int -> epsilon:float -> delta:float -> t
(** Same, but with an explicit [delta] — used by the delta-split ablation
    benchmark to decouple the interval slack from epsilon. *)

val with_policy : t -> refresh_policy -> t
(** A copy with the given refresh policy.  Raises [Invalid_argument] on
    [Every k] with [k < 1]. *)

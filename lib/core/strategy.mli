(** First-class maintenance strategies.

    Replaces the stringly-typed strategy names that {!Simulate}, the bench
    tables and the CLI used to pass around: one variant carries both the
    identity and the parameters (ADAPT's refresh-time estimate, ONLINE's
    rate predictor). *)

type t =
  | Naive  (** flush everything whenever the state becomes full (§2) *)
  | Opt_lgm  (** optimal LGM plan via {!Astar} (§4.1) *)
  | Adapt of { t0 : int }
      (** replay the T0-optimal plan against the actual refresh time
          (§4.2) *)
  | Online of Online.predictor option
      (** the §4.3 heuristic; [None] uses {!Online.default_predictor} *)

val name : t -> string
(** Paper name: NAIVE, OPT-LGM, ADAPT, ONLINE.  Stable across parameters —
    use for matching. *)

val label : t -> string
(** Human label including parameters, e.g. ["ADAPT(T0=500)"],
    ["ONLINE(ewma:0.2)"]. *)

val to_string : t -> string
(** Parseable form: [naive], [opt-lgm], [adapt:500], [online],
    [online:ewma:0.2], [online:ewma-sd:0.2,1], [online:window:10],
    [online:oracle].  Round-trips through {!of_string}. *)

val of_string : ?adapt_t0:int -> string -> (t, string) result
(** Case-insensitive.  Bare ["adapt"] needs [adapt_t0] (the CLI's
    [--adapt-t0] default); ["adapt:T0"] carries its own.  [Error] on an
    unknown name or an out-of-range parameter: an EWMA smoothing outside
    (0, 1], a non-finite ewma-sd [Z], a window below 1. *)

val default_list : ?adapt_t0:int -> horizon:int -> unit -> t list
(** NAIVE, OPT-LGM, ADAPT (with [adapt_t0], default [horizon / 2], at
    least 1) and ONLINE — the paper's Fig. 6 order. *)

module Metrics = Metrics
module Span = Span
module Sink = Sink

(* The collector is shared by every domain (the multiview flush pool,
   serve-round fan-out, background checkpoint writes), so its mutable
   pieces are domain-safe: the registry is internally sharded (see
   {!Metrics}), [depth]/[seq] are atomics, and every sink notification is
   serialized by [sm], since sinks write to shared channels.  [enable]/[disable]/[set_clock] remain main-domain
   operations: they swap whole collectors and are not meant to race with
   in-flight spans. *)
type collector = {
  reg : Metrics.t;
  sm : Mutex.t; (* serializes sink callbacks *)
  sinks : Sink.t list;
  depth : int Atomic.t;
  seq : int Atomic.t;
}

let current : collector option ref = ref None
let enabled () = Option.is_some !current

let with_sinks c f =
  Mutex.lock c.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.sm) (fun () -> f c.sinks)

let has_sinks c = with_sinks c (fun sinks -> sinks <> [])

let disable () =
  match !current with
  | None -> ()
  | Some c ->
      let snap = Metrics.snapshot c.reg in
      with_sinks c (List.iter (fun (s : Sink.t) -> s.on_close snap));
      current := None

let enable ?(sinks = []) () =
  disable ();
  current :=
    Some
      {
        reg = Metrics.create ();
        sm = Mutex.create ();
        sinks;
        depth = Atomic.make 0;
        seq = Atomic.make 0;
      }

let registry () = Option.map (fun c -> c.reg) !current

let snapshot () =
  match !current with None -> [] | Some c -> Metrics.snapshot c.reg

(* Wall clock; overridable for deterministic tests. *)
let clock = ref Unix.gettimeofday
let set_clock f = clock := f

(* --- no-op-when-disabled instrument helpers ------------------------------ *)

let add ?labels name v =
  match !current with
  | None -> ()
  | Some c -> Metrics.inc (Metrics.counter c.reg ?labels name) v

let incr ?labels name = add ?labels name 1.0

let set_gauge ?labels name v =
  match !current with
  | None -> ()
  | Some c -> Metrics.set (Metrics.gauge c.reg ?labels name) v

let max_gauge ?labels name v =
  match !current with
  | None -> ()
  | Some c -> Metrics.set_max (Metrics.gauge c.reg ?labels name) v

let observe ?buckets ?labels name v =
  match !current with
  | None -> ()
  | Some c -> Metrics.observe (Metrics.histogram c.reg ?buckets ?labels name) v

(* --- spans ---------------------------------------------------------------- *)

let with_span ?(attrs = []) ~name fn =
  match !current with
  | None -> fn ()
  | Some c ->
      (* Snapshot-diffing the registry costs O(#instruments); skip it when
         nothing consumes the span.  With concurrent spans on other domains
         the diff attributes their updates to this span too — depth/seq stay
         globally consistent, attribution is per-process, not per-domain. *)
      let want_metrics = has_sinks c in
      let before = if want_metrics then Metrics.snapshot c.reg else [] in
      let start = !clock () in
      let depth = Atomic.fetch_and_add c.depth 1 in
      let seq = Atomic.fetch_and_add c.seq 1 in
      let finish () =
        Atomic.decr c.depth;
        let duration = !clock () -. start in
        let metrics =
          if want_metrics then Metrics.diff (Metrics.snapshot c.reg) before
          else []
        in
        let span = { Span.name; attrs; start; duration; depth; seq; metrics } in
        with_sinks c (fun sinks ->
            if sinks <> [] then
              List.iter (fun (s : Sink.t) -> s.on_span span) sinks)
      in
      Fun.protect ~finally:finish fn

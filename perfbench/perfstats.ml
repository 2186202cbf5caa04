(* Statistics the benchmark reports, kept free of I/O so they can be
   unit-tested: nearest-rank percentiles, the tail rule, a geometric mean
   over strictly positive values, and self time over a span tree. *)

module Obs = Pqc_obs.Obs

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank: the smallest sample with at least [p]% of the samples at
   or below it.  Integer arithmetic keeps the rank exact. *)
let rank ~n p = max 1 (min n (((p * n) + 99) / 100))

let median a =
  if Array.length a = 0 then invalid_arg "Perfstats.median: no samples";
  Pqc_util.Stats.median a

type tail = { pct : int; value : float; beyond : int }

(* The highest integer percentile (50..99) that still has [min_beyond]
   samples above its nearest-rank order statistic.  With too few samples
   for even p50 the maximum is reported, as percentile 100 with nothing
   beyond it. *)
let tail ?(min_beyond = 10) a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Perfstats.tail: no samples";
  let s = sorted a in
  let beyond p = n - rank ~n p in
  let rec go p =
    if p < 50 then { pct = 100; value = s.(n - 1); beyond = 0 }
    else if beyond p >= min_beyond then
      { pct = p; value = s.(rank ~n p - 1); beyond = beyond p }
    else go (p - 1)
  in
  go 99

(* Pulse durations and ratios of them are strictly positive; a zero or
   non-finite value is a broken compile, not a sample to average. *)
let geomean a =
  if Array.length a = 0 then invalid_arg "Perfstats.geomean: no samples";
  Array.iter
    (fun x ->
      if not (Float.is_finite x && x > 0.0) then
        invalid_arg (Printf.sprintf "Perfstats.geomean: %g is not positive" x))
    a;
  Pqc_util.Stats.geometric_mean a

(* ---- span trees ---------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 at top level. *)
  name : string;
  ts : float;
  dur : float;
  tid : int;  (** 0 in the parent process, worker index + 1 in children. *)
  attrs : (string * string) list;
}

let spans_of_events events =
  List.filter_map
    (function
      | Obs.Span { id; parent; name; attrs; ts; dur; tid } ->
        Some { id; parent; name; ts; dur; tid; attrs }
      | Obs.Count _ | Obs.Gauge _ | Obs.Profile _ -> None)
    events

(* Length of the union of [intervals], each clipped to [lo, hi].
   Children running in different worker processes overlap in time, so
   their durations cannot simply be summed. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span with its resolved parent and children.  Span ids are not unique
   across processes: a forked worker numbers its spans from the parent's
   counter at fork plus an offset per worker, and absorbing them never
   advances the parent's counter, so the spans of one worker in two
   successive pool maps can share ids.  The parent of a span is therefore
   the span with its parent id, in its own process or the parent process,
   whose interval contains it. *)
type node = { span : span; mutable up : node option; mutable kids : node list }

(* Slack for the rounding of [ts +. dur] of a child that closes in the
   same clock tick as its parent. *)
let slack = 1e-6

let contains p c =
  p.ts -. slack <= c.ts && c.ts +. c.dur <= p.ts +. p.dur +. slack

let tree spans =
  let nodes = List.map (fun span -> { span; up = None; kids = [] }) spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun nd -> Hashtbl.add by_id nd.span.id nd) nodes;
  List.iter
    (fun nd ->
      let s = nd.span in
      if s.parent <> 0 then
        Hashtbl.find_all by_id s.parent
        |> List.find_opt (fun p ->
               p != nd && (p.span.tid = s.tid || p.span.tid = 0) && contains p.span s)
        |> Option.iter (fun p ->
               nd.up <- Some p;
               p.kids <- nd :: p.kids))
    nodes;
  nodes

(* A span's duration minus the part of its interval that its child spans
   (in any process) cover. *)
let self_time nd =
  let s = nd.span in
  let kids = List.map (fun c -> (c.span.ts, c.span.ts +. c.span.dur)) nd.kids in
  Float.max 0.0 (s.dur -. covered ~lo:s.ts ~hi:(s.ts +. s.dur) kids)

let rec has_ancestor ~name nd =
  match nd.up with
  | None -> false
  | Some p -> String.equal p.span.name name || has_ancestor ~name p

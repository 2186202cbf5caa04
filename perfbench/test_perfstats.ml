open Perfstats

let close = Alcotest.float 1e-9

let test_tail_rule () =
  let a n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* 100 samples: p90 has exactly 10 above it, p91 only 9. *)
  let t = tail (a 100) in
  Alcotest.(check int) "pct n=100" 90 t.pct;
  Alcotest.(check int) "beyond n=100" 10 t.beyond;
  Alcotest.check close "value n=100" 90.0 t.value;
  (* 600 samples: p98 has 12 beyond, p99 only 6. *)
  let t = tail (a 600) in
  Alcotest.(check int) "pct n=600" 98 t.pct;
  Alcotest.(check int) "beyond n=600" 12 t.beyond;
  Alcotest.check close "value n=600" 588.0 t.value;
  (* Order of the input does not matter. *)
  let shuffled = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  Alcotest.(check int) "pct shuffled" 90 (tail shuffled).pct;
  (* Too few samples for p50 to have 10 beyond: the maximum. *)
  let t = tail (a 15) in
  Alcotest.(check int) "pct n=15" 100 t.pct;
  Alcotest.(check int) "beyond n=15" 0 t.beyond;
  Alcotest.check close "value n=15" 15.0 t.value;
  (* 20 samples: p50 is rank 10 with 10 beyond. *)
  let t = tail (a 20) in
  Alcotest.(check int) "pct n=20" 50 t.pct;
  Alcotest.check close "value n=20" 10.0 t.value

let test_median () =
  Alcotest.check close "odd" 2.0 (median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (median [| 4.0; 1.0; 3.0; 2.0 |])

let test_geomean () =
  Alcotest.check close "pair" 4.0 (geomean [| 2.0; 8.0 |]);
  Alcotest.check close "constant" 72.5 (geomean [| 72.5; 72.5; 72.5 |]);
  Alcotest.check close "triple" 10.0 (geomean [| 1.0; 10.0; 100.0 |]);
  let rejects a =
    match geomean a with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero rejected" true (rejects [| 1.0; 0.0 |]);
  Alcotest.(check bool) "nan rejected" true (rejects [| 1.0; Float.nan |]);
  Alcotest.(check bool) "empty rejected" true (rejects [||])

let span ?(tid = 0) id parent name ts dur =
  { id; parent; name; ts; dur; tid; attrs = [] }

(* request(0..10)
   ├─ compile(1..7)
   │   ├─ analysis(1..3)
   │   └─ pool.map(3..7)
   │       ├─ item tid1 (3..6)
   │       └─ item tid2 (4..7)   overlaps its sibling
   └─ sim(8..9) *)
let synthetic =
  [ span 5 3 "item" 3.0 3.0 ~tid:1; span 6 3 "item" 4.0 3.0 ~tid:2;
    span 2 1 "analysis" 1.0 2.0; span 3 1 "pool.map" 3.0 4.0;
    span 1 4 "compile" 1.0 6.0; span 7 4 "sim" 8.0 1.0;
    span 4 0 "request" 0.0 10.0 ]

let self_of nodes name =
  List.fold_left
    (fun acc nd -> if nd.span.name = name then acc +. self_time nd else acc)
    0.0 nodes

let test_self_time () =
  let nodes = tree synthetic in
  let self = self_of nodes in
  Alcotest.check close "request" 3.0 (self "request");
  Alcotest.check close "compile" 0.0 (self "compile");
  Alcotest.check close "analysis" 2.0 (self "analysis");
  (* Children overlap: 3..7 is fully covered, not 6 s of a 4 s span. *)
  Alcotest.check close "pool.map" 0.0 (self "pool.map");
  Alcotest.check close "items" 6.0 (self "item");
  let total = List.fold_left (fun acc nd -> acc +. self_time nd) 0.0 nodes in
  (* Self times cover the root's 10 s once, plus the 2 s in which the two
     worker items ran at the same time. *)
  Alcotest.check close "sum" 12.0 total;
  let item = List.find (fun nd -> nd.span.id = 5) nodes in
  Alcotest.(check bool) "item under compile" true (has_ancestor ~name:"compile" item);
  Alcotest.(check bool) "item not under sim" false (has_ancestor ~name:"sim" item)

(* Worker 1 numbers its spans from the parent's counter at fork plus
   1_000_000, so its spans in two successive pool maps share ids:
   request(0..10)
   ├─ pool.map 2 (1..5)
   │   └─ item 1000003 tid1 (1.5..4.5)
   │       └─ minimal_time 1000004 tid1 (2..4)
   │           └─ optimize 1000005 tid1 (2.5..3.5)
   └─ pool.map 3 (6..9)
       └─ item 1000004 tid1 (6.5..8.5)
           └─ optimize 1000005 tid1 (7..8) *)
let repeated_ids =
  [ span 1000005 1000004 "optimize" 7.0 1.0 ~tid:1;
    span 1000004 3 "item" 6.5 2.0 ~tid:1;
    span 3 1 "pool.map" 6.0 3.0;
    span 1000005 1000004 "optimize" 2.5 1.0 ~tid:1;
    span 1000004 1000003 "minimal_time" 2.0 2.0 ~tid:1;
    span 1000003 2 "item" 1.5 3.0 ~tid:1;
    span 2 1 "pool.map" 1.0 4.0;
    span 1 0 "request" 0.0 10.0 ]

let test_repeated_ids () =
  let nodes = tree repeated_ids in
  let self = self_of nodes in
  Alcotest.check close "minimal_time" 1.0 (self "minimal_time");
  Alcotest.check close "items" 2.0 (self "item");
  Alcotest.check close "pool.map" 2.0 (self "pool.map");
  Alcotest.check close "request" 3.0 (self "request");
  let under_minimal_time =
    List.filter_map
      (fun nd ->
        if nd.span.name = "optimize" then
          Some (nd.span.ts, has_ancestor ~name:"minimal_time" nd)
        else None)
      nodes
    |> List.sort compare
  in
  Alcotest.(check (list (pair (float 0.0) bool)))
    "only the first map's optimize is under minimal_time"
    [ (2.5, true); (7.0, false) ]
    under_minimal_time

let test_covered_clips () =
  Alcotest.check close "clip" 2.0 (covered ~lo:1.0 ~hi:3.0 [ (0.0, 5.0) ]);
  Alcotest.check close "disjoint" 2.0
    (covered ~lo:0.0 ~hi:10.0 [ (1.0, 2.0); (5.0, 6.0) ]);
  Alcotest.check close "outside" 0.0 (covered ~lo:0.0 ~hi:1.0 [ (2.0, 3.0) ])

let test_spans_of_events () =
  let ev =
    [ Pqc_obs.Obs.Count { name = "c"; by = 1.0; ts = 0.0; tid = 0 };
      Pqc_obs.Obs.Span
        { id = 9; parent = 2; name = "x"; attrs = [ ("k", "v") ]; ts = 1.0;
          dur = 0.5; tid = 3 } ]
  in
  match spans_of_events ev with
  | [ s ] ->
    Alcotest.(check int) "id" 9 s.id;
    Alcotest.(check int) "parent" 2 s.parent;
    Alcotest.(check int) "tid" 3 s.tid
  | _ -> Alcotest.fail "expected exactly the one span"

let () =
  Alcotest.run "perfstats"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "geometric mean" `Quick test_geomean ] );
      ( "spans",
        [ Alcotest.test_case "self time on a synthetic tree" `Quick test_self_time;
          Alcotest.test_case "worker span ids repeated across maps" `Quick
            test_repeated_ids;
          Alcotest.test_case "coverage clips to the parent" `Quick test_covered_clips;
          Alcotest.test_case "spans from events" `Quick test_spans_of_events ] ) ]

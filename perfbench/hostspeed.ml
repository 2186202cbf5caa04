(* Host-speed reference for CPU-time figures.

   On a shared virtual machine the same work takes a fifth to a third more
   CPU time in one half hour than in another, as other guests load the
   host's cores, caches and memory.  The benchmark therefore times a fixed
   unit of reference work between its own steps, on the same heap and at
   the same moments, and scales its CPU figures to a host on which one
   unit takes [nominal_unit_s].  The unit uses no library code, so a
   change to the library moves the scaled figures as it moves the raw
   ones. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* About what one unit takes on a lightly loaded 2-vCPU x86-64 cloud VM. *)
let nominal_unit_s = 0.7e-3

(* Reference CPU spent per second of measured CPU. *)
let share = 0.2

let sink = ref 0

(* Complex 4x4 matrix products on flat re/im arrays, like GRAPE's kernels,
   then a hash table and a sorted list of short-lived cells, like the
   compiler front end. *)
let unit_of_work () =
  let a = Array.init 32 (fun i -> float_of_int ((i * 37) mod 11) /. 40.0) in
  let c = Array.init 32 (fun i -> float_of_int ((i * 13) mod 7) /. 20.0) in
  let b = Array.make 32 0.0 in
  let acc = ref 0.0 in
  for r = 1 to 2000 do
    a.(r land 31) <- a.(r land 31) +. 1e-9;
    for i = 0 to 3 do
      for j = 0 to 3 do
        let re = ref 0.0 and im = ref 0.0 in
        for k = 0 to 3 do
          let ar = a.(2 * ((4 * i) + k)) and ai = a.((2 * ((4 * i) + k)) + 1) in
          let cr = c.(2 * ((4 * k) + j)) and ci = c.((2 * ((4 * k) + j)) + 1) in
          re := !re +. (ar *. cr) -. (ai *. ci);
          im := !im +. (ar *. ci) +. (ai *. cr)
        done;
        b.(2 * ((4 * i) + j)) <- !re;
        b.((2 * ((4 * i) + j)) + 1) <- !im
      done
    done;
    acc := !acc +. b.(r land 31)
  done;
  let h = Hashtbl.create 64 in
  for i = 1 to 1000 do
    Hashtbl.replace h ((i * 7919) mod 1009) [ i ]
  done;
  let l = List.sort compare (List.init 1000 (fun i -> ((i * 7919) mod 1009, i))) in
  sink := !sink + Hashtbl.length h + List.length l + int_of_float !acc

type t = { mutable units : int; mutable cpu : float; mutable minor_words : float }

let create () = { units = 0; cpu = 0.0; minor_words = 0.0 }

let run t =
  let w0 = Gc.minor_words () and c0 = cpu_s () in
  unit_of_work ();
  t.cpu <- t.cpu +. (cpu_s () -. c0);
  t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
  t.units <- t.units + 1

(* Runs units until the reference has [share] of [work_cpu], and at
   least one. *)
let keep_up t ~work_cpu =
  while t.units = 0 || t.cpu < share *. work_cpu do
    run t
  done

(* Multiplies a CPU time measured alongside [t] into nominal-host time. *)
let scale t = nominal_unit_s /. (t.cpu /. float_of_int t.units)

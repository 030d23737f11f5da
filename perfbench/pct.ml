(* Timing summaries: the median, the highest percentile that still has at
   least ten samples beyond it, and the sample count. *)

(* Candidate percentiles, in tenths of a percent. *)
let ladder = [ 500; 750; 900; 950; 990; 999 ]

(* Nearest rank (1-based) of percentile [pt] tenths among [n] samples. *)
let rank ~n pt = max 1 ((pt * n + 999) / 1000)

let tail_tenths n =
  List.fold_left
    (fun best pt -> if n - rank ~n pt >= 10 then Some pt else best)
    None ladder

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let at_tenths a pt = a.(rank ~n:(Array.length a) pt - 1)

type summary = {
  count : int;
  p50 : float;
      (** The median (mean of the middle two for an even count); [nan]
          when there are no samples. *)
  tail : (float * float) option;
      (** (percentile, value): the highest percentile of {!ladder} with
          at least ten samples beyond it, when that is above the
          median (from 40 samples on). *)
  iqr_share : float;
      (** Interquartile distance as a share of the median; [nan] below
          four samples. *)
}

let quartiles a =
  (* Python's [statistics.quantiles(values, n=4)] (exclusive method),
     in exact integer arithmetic; needs at least two samples. *)
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 3)

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { count = 0; p50 = nan; tail = None; iqr_share = nan }
  else
    let p50 = (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0 in
    let tail =
      match tail_tenths n with
      | Some pt when pt > 500 -> Some (float_of_int pt /. 10.0, at_tenths a pt)
      | _ -> None
    in
    let iqr_share =
      if n < 4 || p50 = 0.0 then nan
      else
        let q1, q3 = quartiles a in
        (q3 -. q1) /. p50
    in
    { count = n; p50; tail; iqr_share }

let median xs = (summarize xs).p50

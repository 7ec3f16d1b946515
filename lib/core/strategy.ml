type t =
  | Naive
  | Opt_lgm
  | Adapt of { t0 : int }
  | Online of Online.predictor option

let name = function
  | Naive -> "NAIVE"
  | Opt_lgm -> "OPT-LGM"
  | Adapt _ -> "ADAPT"
  | Online _ -> "ONLINE"

let predictor_string = function
  | Online.Ewma alpha -> Printf.sprintf "ewma:%g" alpha
  | Online.Ewma_conservative { alpha; z } -> Printf.sprintf "ewma-sd:%g,%g" alpha z
  | Online.Window k -> Printf.sprintf "window:%d" k
  | Online.Oracle -> "oracle"

let label = function
  | Adapt { t0 } -> Printf.sprintf "ADAPT(T0=%d)" t0
  | Online (Some p) -> Printf.sprintf "ONLINE(%s)" (predictor_string p)
  | s -> name s

let to_string = function
  | Naive -> "naive"
  | Opt_lgm -> "opt-lgm"
  | Adapt { t0 } -> Printf.sprintf "adapt:%d" t0
  | Online None -> "online"
  | Online (Some p) -> "online:" ^ predictor_string p

let parse_predictor text =
  match String.split_on_char ':' text with
  | [ "oracle" ] -> Ok Online.Oracle
  | [ "ewma"; alpha ] -> (
      match float_of_string_opt alpha with
      | Some a when a > 0.0 && a <= 1.0 -> Ok (Online.Ewma a)
      | _ -> Error (Printf.sprintf "bad EWMA smoothing %S (want (0,1])" alpha))
  | [ "ewma-sd"; params ] -> (
      match String.split_on_char ',' params with
      | [ alpha; z ] -> (
          match (float_of_string_opt alpha, float_of_string_opt z) with
          | Some a, Some z when a > 0.0 && a <= 1.0 && Float.is_finite z ->
              Ok (Online.Ewma_conservative { alpha = a; z })
          | _ ->
              Error
                (Printf.sprintf
                   "bad ewma-sd parameters %S (want ALPHA in (0,1], finite Z)"
                   params))
      | _ -> Error (Printf.sprintf "ewma-sd wants ALPHA,Z (got %S)" params))
  | [ "window"; k ] -> (
      match int_of_string_opt k with
      | Some k when k > 0 -> Ok (Online.Window k)
      | _ -> Error (Printf.sprintf "bad window size %S" k))
  | _ ->
      Error
        (Printf.sprintf
           "unknown predictor %S (want ewma:A, ewma-sd:A,Z, window:K or \
            oracle)"
           text)

let of_string ?adapt_t0 text =
  let text = String.lowercase_ascii (String.trim text) in
  match String.index_opt text ':' with
  | None -> (
      match text with
      | "naive" -> Ok Naive
      | "opt-lgm" | "opt_lgm" | "optlgm" | "opt" -> Ok Opt_lgm
      | "online" -> Ok (Online None)
      | "adapt" -> (
          match adapt_t0 with
          | Some t0 -> Ok (Adapt { t0 })
          | None -> Error "adapt needs a refresh-time estimate: adapt:T0")
      | other ->
          Error
            (Printf.sprintf
               "unknown strategy %S (want naive, opt-lgm, adapt:T0 or \
                online[:PREDICTOR])"
               other))
  | Some i -> (
      let head = String.sub text 0 i in
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      match head with
      | "adapt" -> (
          match int_of_string_opt rest with
          | Some t0 when t0 >= 1 -> Ok (Adapt { t0 })
          | _ -> Error (Printf.sprintf "bad adapt refresh estimate %S" rest))
      | "online" ->
          Result.map (fun p -> Online (Some p)) (parse_predictor rest)
      | other -> Error (Printf.sprintf "unknown strategy %S" other))

let default_list ?adapt_t0 ~horizon () =
  let t0 = match adapt_t0 with Some t -> t | None -> max 1 (horizon / 2) in
  [ Naive; Opt_lgm; Adapt { t0 }; Online None ]

type sync = Always | Interval of int | Never

let sync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval n -> Printf.sprintf "interval:%d" n

let sync_of_string text =
  match String.lowercase_ascii text with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | other -> (
      match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "interval" -> (
          match
            int_of_string_opt
              (String.sub other (i + 1) (String.length other - i - 1))
          with
          | Some n when n > 0 -> Ok (Interval n)
          | _ -> Error (Printf.sprintf "bad sync policy %S" text))
      | _ -> Error (Printf.sprintf "bad sync policy %S" text))

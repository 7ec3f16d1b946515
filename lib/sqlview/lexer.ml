type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Kw_select
  | Kw_from
  | Kw_where
  | Kw_group
  | Kw_by
  | Kw_as
  | Kw_and
  | Kw_or
  | Kw_not
  | Kw_min
  | Kw_max
  | Kw_sum
  | Kw_count
  | Kw_avg
  | Kw_true
  | Kw_false
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star
  | Plus
  | Minus
  | Slash
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

let token_to_string = function
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Float_lit x -> string_of_float x
  | String_lit s -> "'" ^ s ^ "'"
  | Kw_select -> "SELECT"
  | Kw_from -> "FROM"
  | Kw_where -> "WHERE"
  | Kw_group -> "GROUP"
  | Kw_by -> "BY"
  | Kw_as -> "AS"
  | Kw_and -> "AND"
  | Kw_or -> "OR"
  | Kw_not -> "NOT"
  | Kw_min -> "MIN"
  | Kw_max -> "MAX"
  | Kw_sum -> "SUM"
  | Kw_count -> "COUNT"
  | Kw_avg -> "AVG"
  | Kw_true -> "TRUE"
  | Kw_false -> "FALSE"
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Dot -> "."
  | Star -> "*"
  | Plus -> "+"
  | Minus -> "-"
  | Slash -> "/"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let keyword_of_string s =
  match String.lowercase_ascii s with
  | "select" -> Some Kw_select
  | "from" -> Some Kw_from
  | "where" -> Some Kw_where
  | "group" -> Some Kw_group
  | "by" -> Some Kw_by
  | "as" -> Some Kw_as
  | "and" -> Some Kw_and
  | "or" -> Some Kw_or
  | "not" -> Some Kw_not
  | "min" -> Some Kw_min
  | "max" -> Some Kw_max
  | "sum" -> Some Kw_sum
  | "count" -> Some Kw_count
  | "avg" -> Some Kw_avg
  | "true" -> Some Kw_true
  | "false" -> Some Kw_false
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize text =
  let n = String.length text in
  let rec loop i acc =
    if i >= n then Ok (List.rev acc)
    else
      let c = text.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then loop (i + 1) acc
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do
          incr j
        done;
        let word = String.sub text i (!j - i) in
        let token =
          match keyword_of_string word with
          | Some kw -> kw
          | None -> Ident (String.lowercase_ascii word)
        in
        loop !j (token :: acc)
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit text.[!j] do
          incr j
        done;
        if !j < n && text.[!j] = '.' && !j + 1 < n && is_digit text.[!j + 1]
        then begin
          incr j;
          while !j < n && is_digit text.[!j] do
            incr j
          done;
          loop !j (Float_lit (float_of_string (String.sub text i (!j - i))) :: acc)
        end
        else
          match int_of_string_opt (String.sub text i (!j - i)) with
          | Some v -> loop !j (Int_lit v :: acc)
          | None ->
              Error
                (Printf.sprintf "integer literal out of range at offset %d" i)
      end
      else if c = '\'' then begin
        match String.index_from_opt text (i + 1) '\'' with
        | None -> Error (Printf.sprintf "unterminated string literal at offset %d" i)
        | Some close ->
            loop (close + 1)
              (String_lit (String.sub text (i + 1) (close - i - 1)) :: acc)
      end
      else begin
        let two = if i + 1 < n then String.sub text i 2 else "" in
        match two with
        | "<>" -> loop (i + 2) (Neq :: acc)
        | "!=" -> loop (i + 2) (Neq :: acc)
        | "<=" -> loop (i + 2) (Le :: acc)
        | ">=" -> loop (i + 2) (Ge :: acc)
        | _ -> (
            match c with
            | '(' -> loop (i + 1) (Lparen :: acc)
            | ')' -> loop (i + 1) (Rparen :: acc)
            | ',' -> loop (i + 1) (Comma :: acc)
            | '.' -> loop (i + 1) (Dot :: acc)
            | '*' -> loop (i + 1) (Star :: acc)
            | '+' -> loop (i + 1) (Plus :: acc)
            | '-' -> loop (i + 1) (Minus :: acc)
            | '/' -> loop (i + 1) (Slash :: acc)
            | '=' -> loop (i + 1) (Eq :: acc)
            | '<' -> loop (i + 1) (Lt :: acc)
            | '>' -> loop (i + 1) (Gt :: acc)
            | _ ->
                Error
                  (Printf.sprintf "unexpected character %C at offset %d" c i))
      end
  in
  loop 0 []

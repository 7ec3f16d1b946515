type t = {
  on_span : Span.t -> unit;
  on_close : Metrics.snapshot -> unit;
      (* called once with the final metrics snapshot when the collector is
         disabled *)
}

let make ?(on_close = fun _ -> ()) on_span = { on_span; on_close }

let jsonl_channel ?(close = false) oc =
  {
    on_span = (fun span -> output_string oc (Span.to_json span ^ "\n"));
    on_close =
      (fun snap ->
        output_string oc
          (Jsonx.obj
             [
               ("type", Jsonx.str "metrics");
               ("metrics", Metrics.snapshot_json snap);
             ]
          ^ "\n");
        if close then close_out oc else flush oc);
  }

let jsonl_file path = jsonl_channel ~close:true (open_out path)

let memory () =
  let spans = ref [] in
  ( { on_span = (fun span -> spans := span :: !spans); on_close = (fun _ -> ()) },
    fun () -> List.rev !spans )

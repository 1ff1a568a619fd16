(** The random-index-indirection microbenchmark of sections 2 and 5.1.

    The working set is an array of 8-byte values; each request carries a
    uniformly random index and the handler replies with the value at
    that index. With a 20% local-DRAM ratio this yields the paper's
    bimodal service-time distribution (about 0.85 us local / 5.3 us
    remote at 2 GHz). *)

val app : ?pages:int -> ?page_size:int -> unit -> Adios_core.App.t
(** [app ()] builds the microbenchmark over [pages] pages of
    [page_size] bytes (default 16,384 x 4 KB, i.e. a 64 MB array
    standing in for the paper's 40 GB at the same 20% local ratio).
    A 2 MB [page_size] models huge-page faulting (ablation A7). *)

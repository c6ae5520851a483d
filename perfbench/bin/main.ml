let () = exit (Perfbench.Bench.main Sys.argv)

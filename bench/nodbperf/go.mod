module nodb/bench/nodbperf

go 1.24

require nodb v0.0.0

replace nodb => ../..

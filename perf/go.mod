module nbctune/perf

go 1.22

require nbctune v0.0.0

replace nbctune => ../

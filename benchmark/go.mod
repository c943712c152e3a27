module github.com/virtualpartitions/vp/benchmark

go 1.22

require github.com/virtualpartitions/vp v0.0.0

replace github.com/virtualpartitions/vp => ../

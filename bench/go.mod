module github.com/datacase/datacase/bench

go 1.21

require github.com/datacase/datacase v0.0.0

replace github.com/datacase/datacase => ../

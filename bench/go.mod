module asrs/bench

go 1.22

require asrs v0.0.0

replace asrs => ../

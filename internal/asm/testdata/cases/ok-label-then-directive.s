_start: .quad 1, 2
x: y: .byte 1


# c
; c
// c
_start:	li a0, 1 # c
	li a1, 2 ; c
	li a2, 3 // c
	.rodata
s:	.asciz "a # b ; c // d"  ; real comment
t:	.asciz "q\"# not comment"
	.text
lab1: lab2:  lab3:	nop
  spaced:	halt

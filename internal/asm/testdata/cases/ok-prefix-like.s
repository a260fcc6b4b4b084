
	.text
	.global _start
_start:
	call main
	li a7, 94
	svc 0
helper:
	la a0, counter
	ld a1, 0(a0)
	addi a1, a1, STEP
	sd a1, 0(a0)
	ret
	.data
counter: .quad 0
	.equ STEP, 1
;;; file user.s
main:
	addi sp, sp, -16
	sd ra, 8(sp)
	call helper
	call helper
	la a0, counter
	ld a0, 0(a0)
	ld ra, 8(sp)
	addi sp, sp, 16
	ret
	.equ STEP, 5

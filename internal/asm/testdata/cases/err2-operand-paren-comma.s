_start:
	ld a0, (1,2)(sp)

_start:
	ld a0, nowhere(sp)
